//! Decoder fuzzing: the hardened trace/summary decoders must survive
//! arbitrary bytes, single-byte mutations of valid encodings, and
//! truncations — never panicking and never allocating past what the
//! input length can justify ([`DecodeLimits`] exists precisely so a
//! 16-byte file declaring 2^60 events cannot reserve memory for them).
//!
//! Each property runs 10 000 deterministic cases (seeded from the test
//! name, so failures reproduce exactly).
//!
//! Over-allocation is checked through a length proxy: the smallest event
//! record is 9 bytes (events start at byte 16), so a decoder that holds
//! more events than `(input - 16) / 9` must have trusted a declared
//! count over the actual bytes. The same reasoning bounds summary
//! ranges, whose records are at least 17 bytes.

use proptest::prelude::*;

use std::collections::{HashMap, HashSet};

use dgrace_trace::io::{from_bytes, read_trace_with, summary_from_bytes, to_bytes, EventReader};
use dgrace_trace::{
    decode_events, encode_events, read_frame, validate, write_frame, AccessSize, Addr,
    DecodeLimits, DecodeStats, Event, LockId, ReadOptions, Tid, Trace, TraceBuilder, TraceError,
    ValidationError, Validator, MAX_FRAME_LEN,
};

/// Upper bound on events any honest decode of `n` input bytes can yield.
fn max_events(n: usize) -> usize {
    n.saturating_sub(16) / 9
}

/// Builds a structurally valid trace from generated op tuples.
fn trace_from_ops(ops: &[(u8, u32, u64, u8, u64)]) -> Trace {
    let mut b = TraceBuilder::new();
    for &(kind, tid, addr, sz, len) in ops {
        let tid = tid % 64;
        let size = match sz % 4 {
            0 => AccessSize::U8,
            1 => AccessSize::U16,
            2 => AccessSize::U32,
            _ => AccessSize::U64,
        };
        match kind % 8 {
            0 => {
                b.read(tid, addr, size);
            }
            1 => {
                b.write(tid, addr, size);
            }
            2 => {
                b.acquire(tid, (addr % 16) as u32);
            }
            3 => {
                b.release(tid, (addr % 16) as u32);
            }
            4 => {
                b.fork(tid, tid.wrapping_add(1) % 64);
            }
            5 => {
                b.join(tid, tid.wrapping_add(1) % 64);
            }
            6 => {
                b.alloc(tid, addr, 1 + len % 4096);
            }
            _ => {
                b.free(tid, addr, 1 + len % 4096);
            }
        }
    }
    b.build()
}

/// Strict decode of arbitrary bytes: an `Err` or a bounded `Ok`, never a
/// panic, never more events than the byte count can encode.
fn check_strict(bytes: &[u8]) {
    if let Ok(trace) = from_bytes(bytes) {
        assert!(
            trace.len() <= max_events(bytes.len()),
            "decoded {} events from {} bytes",
            trace.len(),
            bytes.len()
        );
    }
}

/// Resync decode of the same bytes: also panic-free, also bounded, and
/// its stats stay coherent with what was returned.
fn check_resync(bytes: &[u8]) {
    let opts = ReadOptions {
        limits: DecodeLimits::default(),
        resync: true,
    };
    if let Ok((trace, stats)) = read_trace_with(&mut &bytes[..], opts) {
        assert!(trace.len() <= max_events(bytes.len()));
        assert_eq!(stats.decoded, trace.len() as u64);
        assert!(stats.dropped_bytes <= bytes.len() as u64);
    }
}

/// Streaming decode: the iterator must terminate (bounded by the input
/// length) and stop permanently after its first error.
fn check_streaming(bytes: &[u8]) {
    let Ok(reader) = EventReader::new(bytes) else {
        return;
    };
    let mut decoded = 0usize;
    let mut steps = 0usize;
    for item in reader {
        steps += 1;
        assert!(
            steps <= bytes.len() + 1,
            "EventReader did not terminate within the input length"
        );
        match item {
            Ok(_) => decoded += 1,
            Err(_) => break, // the iterator fuses after an error
        }
    }
    assert!(decoded <= max_events(bytes.len()));
}

/// A reader that hands its bytes out at most `chunk` at a time, so the
/// decoder's window refills every few records instead of once.
struct Trickle<'a> {
    bytes: &'a [u8],
    chunk: usize,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(out.len()).min(self.bytes.len());
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Everything a reader yields: the events, the error that ended it (its
/// `Debug` form carries the variant and every offset) and the final
/// stats. `None` when the header is rejected.
type Drained = Option<(Vec<Event>, Option<String>, DecodeStats)>;

fn open(bytes: &[u8], chunk: usize, resync: bool) -> Option<EventReader<Trickle<'_>>> {
    let opts = ReadOptions {
        limits: DecodeLimits::default(),
        resync,
    };
    EventReader::with_options(Trickle { bytes, chunk }, opts).ok()
}

/// One event at a time through `Iterator::next`.
fn drain_by_next(bytes: &[u8], resync: bool) -> Drained {
    let mut reader = open(bytes, usize::MAX, resync)?;
    let mut events = Vec::new();
    let mut error = None;
    for item in reader.by_ref() {
        match item {
            Ok(ev) => events.push(ev),
            Err(e) => error = Some(format!("{e:?}")),
        }
    }
    Some((events, error, reader.stats()))
}

/// `block` events at a time through `read_block`, over a source that
/// trickles `chunk` bytes per read.
fn drain_by_blocks(bytes: &[u8], resync: bool, block: usize, chunk: usize) -> Drained {
    let mut reader = open(bytes, chunk, resync)?;
    let mut events = Vec::new();
    let mut error = None;
    loop {
        let before = events.len();
        match reader.read_block(&mut events, block) {
            Ok(0) => break,
            Ok(n) => assert_eq!(events.len(), before + n, "count == appended"),
            Err(e) => {
                error = Some(format!("{e:?}"));
                assert_eq!(reader.read_block(&mut events, block).ok(), Some(0), "fused");
                break;
            }
        }
    }
    Some((events, error, reader.stats()))
}

/// The block decoder is the one-at-a-time decoder: same events, same
/// error at the same offset, same loss accounting, whatever the block
/// size and however the bytes arrive.
fn check_blocks_match_next(bytes: &[u8]) {
    for resync in [false, true] {
        let want = drain_by_next(bytes, resync);
        for block in [1, 7, 4096] {
            for chunk in [1, 13, usize::MAX] {
                assert_eq!(
                    drain_by_blocks(bytes, resync, block, chunk),
                    want,
                    "resync={resync} block={block} chunk={chunk}"
                );
            }
        }
    }
}

/// The same property across the 64 KiB window: a trace several windows
/// long, cut and corrupted around the window's edges.
#[test]
fn blocks_match_next_across_the_window_boundary() {
    let ops: Vec<_> = (0..12_000u64)
        .map(|i| ((i * 7 % 8) as u8, (i % 5) as u32, i * 24, (i % 4) as u8, i))
        .collect();
    let bytes = to_bytes(&trace_from_ops(&ops));
    assert!(bytes.len() > 2 * 64 * 1024);
    check_blocks_match_next(&bytes);
    for edge in [64 * 1024, 2 * 64 * 1024] {
        for at in edge - 24..edge + 24 {
            check_blocks_match_next(&bytes[..at]);
        }
        for at in [edge - 20, edge - 1, edge, edge + 1] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0xA5;
            check_blocks_match_next(&flipped);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_000))]

    /// `read_block` against `next()` on valid, bit-flipped, truncated and
    /// spliced encodings, strict and resync.
    #[test]
    fn read_block_matches_next(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u64..0x4000, any::<u8>(), any::<u64>()),
            1..24,
        ),
        at in any::<usize>(),
        value in any::<u8>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..32),
    ) {
        let bytes = to_bytes(&trace_from_ops(&ops));
        let at = at % bytes.len();
        check_blocks_match_next(&bytes);
        let mut flipped = bytes.clone();
        flipped[at] ^= value | 1;
        check_blocks_match_next(&flipped);
        check_blocks_match_next(&bytes[..at]);
        let mut spliced = bytes.clone();
        spliced.splice(at..at, garbage);
        check_blocks_match_next(&spliced);
    }
}

/// The validator as it was before it became incremental — whole-trace,
/// hash sets and maps — kept as the oracle `Validator::step` is checked
/// against. (Its one change: a joined thread's held lock is the smallest
/// one, where map iteration order used to pick.)
fn oracle_validate(trace: &Trace) -> Result<(), ValidationError> {
    let mut forked: HashSet<Tid> = HashSet::new();
    forked.insert(Tid::MAIN);
    let mut joined: HashSet<Tid> = HashSet::new();
    let mut held: HashMap<LockId, Tid> = HashMap::new();
    let mut read_held: HashMap<LockId, Vec<Tid>> = HashMap::new();
    let mut arrived: HashMap<LockId, Vec<Tid>> = HashMap::new();

    for (at, ev) in trace.iter().enumerate() {
        let actor = ev.tid();
        if !forked.contains(&actor) {
            return Err(ValidationError::UnforkedThread { tid: actor, at });
        }
        if joined.contains(&actor) {
            return Err(ValidationError::ActedAfterJoin { tid: actor, at });
        }
        match *ev {
            Event::Fork { child, .. } => {
                if !forked.insert(child) {
                    return Err(ValidationError::DoubleFork { tid: child, at });
                }
            }
            Event::Join { child, .. } => {
                if !forked.contains(&child) {
                    return Err(ValidationError::JoinOfUnforked { tid: child, at });
                }
                let write_held = held.iter().filter(|&(_, &t)| t == child).map(|(&l, _)| l);
                let read_held_by = read_held
                    .iter()
                    .filter(|(_, holders)| holders.contains(&child))
                    .map(|(&l, _)| l);
                if let Some(lock) = write_held.min().or(read_held_by.min()) {
                    return Err(ValidationError::ThreadJoinedHoldingLock {
                        tid: child,
                        lock,
                        at,
                    });
                }
                joined.insert(child);
            }
            Event::Acquire { tid, lock } => {
                if held.contains_key(&lock) {
                    return Err(ValidationError::AcquireOfHeldLock { tid, lock, at });
                }
                if read_held.get(&lock).is_some_and(|r| !r.is_empty()) {
                    return Err(ValidationError::RwLockConflict { tid, lock, at });
                }
                held.insert(lock, tid);
            }
            Event::Release { tid, lock } => {
                if held.get(&lock) != Some(&tid) {
                    return Err(ValidationError::ReleaseWithoutAcquire { tid, lock, at });
                }
                held.remove(&lock);
            }
            Event::AcquireRead { tid, lock } => {
                if held.contains_key(&lock) {
                    return Err(ValidationError::RwLockConflict { tid, lock, at });
                }
                read_held.entry(lock).or_default().push(tid);
            }
            Event::ReleaseRead { tid, lock } => {
                let holders = read_held.entry(lock).or_default();
                match holders.iter().position(|&t| t == tid) {
                    Some(i) => {
                        holders.swap_remove(i);
                    }
                    None => {
                        return Err(ValidationError::ReadReleaseWithoutAcquire { tid, lock, at })
                    }
                }
            }
            Event::CvSignal { .. } | Event::CvWait { .. } => {}
            Event::BarrierArrive { tid, bar } => {
                arrived.entry(bar).or_default().push(tid);
            }
            Event::BarrierDepart { tid, bar } => {
                let waiting = arrived.entry(bar).or_default();
                match waiting.iter().position(|&t| t == tid) {
                    Some(i) => {
                        waiting.swap_remove(i);
                    }
                    None => {
                        return Err(ValidationError::BarrierDepartWithoutArrive { tid, bar, at })
                    }
                }
            }
            Event::Alloc { size, .. } | Event::Free { size, .. } => {
                if size == 0 {
                    return Err(ValidationError::EmptyAccess { at });
                }
            }
            Event::Read { .. } | Event::Write { .. } => {}
        }
    }
    Ok(())
}

/// An event of any of the fourteen kinds over a few threads, locks and
/// barriers — few enough that sequences get some way before breaking a
/// rule — with the odd id past the validator's dense tables (`far`).
fn schedule_event(kind: u8, a: u8, b: u8, far: u8) -> Event {
    let id = |small: u8, far: bool| {
        if far {
            70_000 + small as u32 % 2
        } else {
            small as u32 % 4
        }
    };
    // `far` 0: the actor is past the dense tables too; 1: only the other
    // thread / lock / barrier is.
    let (tid, other) = (Tid(id(a, far == 0)), Tid(id(b, far <= 1)));
    let obj = LockId(other.0);
    match kind % 14 {
        0 => Event::Read {
            tid,
            addr: Addr(0x10),
            size: AccessSize::U8,
        },
        1 => Event::Write {
            tid,
            addr: Addr(0x10),
            size: AccessSize::U32,
        },
        2 => Event::Acquire { tid, lock: obj },
        3 => Event::Release { tid, lock: obj },
        4 => Event::Fork {
            parent: tid,
            child: other,
        },
        5 => Event::Join {
            parent: tid,
            child: other,
        },
        6 => Event::Alloc {
            tid,
            addr: Addr(0x100),
            size: b as u64 % 3,
        },
        7 => Event::Free {
            tid,
            addr: Addr(0x100),
            size: b as u64 % 3,
        },
        8 => Event::AcquireRead { tid, lock: obj },
        9 => Event::ReleaseRead { tid, lock: obj },
        10 => Event::CvSignal { tid, cv: obj },
        11 => Event::CvWait { tid, cv: obj },
        12 => Event::BarrierArrive { tid, bar: obj },
        _ => Event::BarrierDepart { tid, bar: obj },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Random, mostly invalid schedules: stepping the incremental
    /// validator finds the oracle's first error — same variant, same
    /// ids, same event index — and `validate` is that loop.
    #[test]
    fn validator_steps_match_the_whole_trace_oracle(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>(), 0u8..16),
            0..48,
        ),
    ) {
        // Three live workers up front, so that the random events after
        // them have threads to act on.
        let workers = (1..4).map(|child| Event::Fork {
            parent: Tid::MAIN,
            child: Tid(child),
        });
        let random = ops
            .iter()
            .map(|&(kind, a, b, far)| schedule_event(kind, a, b, far));
        let events: Vec<Event> = workers.chain(random).collect();
        let trace = Trace::from_events(events);
        let want = oracle_validate(&trace);
        let mut v = Validator::new();
        let got = trace.iter().try_for_each(|ev| v.step(ev));
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(validate(&trace), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// Pure garbage bytes, sometimes wearing a valid-looking header.
    #[test]
    fn arbitrary_bytes_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..192),
        with_header in any::<bool>(),
    ) {
        let bytes = if with_header {
            let mut b = b"DGRT\x01\x00\x00\x00".to_vec();
            b.extend_from_slice(&body);
            b
        } else {
            body
        };
        check_strict(&bytes);
        check_resync(&bytes);
        check_streaming(&bytes);
        // The summary decoder sees the same bytes; it must be as robust.
        let _ = summary_from_bytes(&bytes);
    }

    /// A valid encoding with one byte flipped: strict decode either
    /// succeeds (the flip hit a payload field) or fails typed; resync
    /// decode recovers a subset no larger than the original.
    #[test]
    fn single_byte_mutations_never_panic(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u64..0x4000, any::<u8>(), any::<u64>()),
            1..24,
        ),
        offset in any::<usize>(),
        value in any::<u8>(),
    ) {
        let trace = trace_from_ops(&ops);
        let mut bytes = to_bytes(&trace);
        let n = bytes.len();
        bytes[offset % n] ^= value | 1; // guarantee the byte changes
        match from_bytes(&bytes) {
            Ok(decoded) => prop_assert!(decoded.len() <= max_events(n)),
            Err(e) => {
                if let Some(off) = e.offset() {
                    prop_assert!(off <= n as u64, "error offset {off} beyond input {n}");
                }
            }
        }
        let opts = ReadOptions { limits: DecodeLimits::default(), resync: true };
        if let Ok((recovered, stats)) = read_trace_with(&mut &bytes[..], opts) {
            prop_assert!(recovered.len() <= trace.len());
            prop_assert_eq!(stats.decoded, recovered.len() as u64);
        }
        check_streaming(&bytes);
    }

    /// A valid encoding cut off at an arbitrary point: strict decode of a
    /// proper prefix reports `Truncated` (or a header error for cuts
    /// inside the header); resync decode ends the stream cleanly.
    #[test]
    fn truncations_never_panic(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u64..0x4000, any::<u8>(), any::<u64>()),
            1..24,
        ),
        cut in any::<usize>(),
    ) {
        let trace = trace_from_ops(&ops);
        let bytes = to_bytes(&trace);
        let cut = cut % bytes.len(); // always a proper prefix
        let prefix = &bytes[..cut];
        match from_bytes(prefix) {
            Ok(_) => prop_assert!(false, "a proper prefix cannot satisfy the declared count"),
            Err(TraceError::Truncated { offset, .. }) => {
                prop_assert!(offset <= cut as u64);
            }
            Err(TraceError::BadMagic(_)) | Err(TraceError::Io(_)) => {
                prop_assert!(cut < 16, "header errors only for cuts inside the header");
            }
            Err(_) => {}
        }
        check_resync(prefix);
        check_streaming(prefix);
    }

    /// Tight decode limits are enforced, not just advisory: a trace whose
    /// thread ids exceed the configured bound fails typed under those
    /// limits while decoding fine under the defaults.
    #[test]
    fn limits_are_enforced(tid in 9u32..1024, addr in 0u64..0x4000) {
        let mut b = TraceBuilder::new();
        b.write(tid, addr, AccessSize::U8);
        let bytes = to_bytes(&b.build());
        prop_assert!(from_bytes(&bytes).is_ok());
        let tight = ReadOptions {
            limits: DecodeLimits { max_tid: 8, ..DecodeLimits::default() },
            resync: false,
        };
        match read_trace_with(&mut &bytes[..], tight) {
            Err(TraceError::LimitExceeded { what, value, limit, .. }) => {
                prop_assert_eq!(what, "thread id");
                prop_assert_eq!(value, tid as u64);
                prop_assert_eq!(limit, 8);
            }
            other => prop_assert!(false, "expected LimitExceeded, got {:?}", other.map(|(t, _)| t.len())),
        }
    }
}

/// Encodes a live-protocol stream: each op chunk becomes one framed
/// event batch, exactly as `dgrace serve` clients send them.
fn framed_stream(ops: &[(u8, u32, u64, u8, u64)], per_frame: usize) -> Vec<u8> {
    let trace = trace_from_ops(ops);
    let mut bytes = Vec::new();
    for chunk in trace.events.chunks(per_frame.max(1)) {
        write_frame(&mut bytes, 0x02, &encode_events(chunk)).expect("frame fits");
    }
    bytes
}

/// Reads frames until EOF or the first error, asserting the loop is
/// bounded by the input and every recovered event batch accounts its
/// losses exactly (`decoded + lost == declared`).
fn check_framed(bytes: &[u8]) {
    let limits = DecodeLimits::default();
    let mut r = bytes;
    let mut offset = 0u64;
    let mut frames = 0usize;
    loop {
        frames += 1;
        assert!(
            frames <= bytes.len() + 1,
            "frame reader did not terminate within the input length"
        );
        match read_frame(&mut r, &mut offset, MAX_FRAME_LEN) {
            Ok(Some(frame)) => {
                assert!(offset <= bytes.len() as u64, "offset ran past the input");
                let batch =
                    decode_events(&frame.payload, offset - frame.payload.len() as u64, &limits);
                assert_eq!(
                    batch.events.len() as u64 + batch.lost(),
                    batch.declared as u64,
                    "loss accounting must cover every declared event"
                );
                assert!(batch.error.is_some() || batch.lost() == 0);
            }
            Ok(None) => break,
            Err(e) => {
                // Typed, positioned failure — the server quarantines on
                // this; it must never be a panic or a runaway offset.
                if let Some(off) = e.offset() {
                    assert!(off <= bytes.len() as u64, "error offset {off} beyond input");
                }
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    /// A valid framed event stream cut off mid-frame: the reader yields
    /// every whole frame, then one typed error or clean EOF — the
    /// disconnect-mid-segment path of the live server.
    #[test]
    fn framed_stream_truncations_never_panic(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u64..0x4000, any::<u8>(), any::<u64>()),
            1..24,
        ),
        per_frame in 1usize..32,
        cut in any::<usize>(),
    ) {
        let bytes = framed_stream(&ops, per_frame);
        check_framed(&bytes[..cut % (bytes.len() + 1)]);
    }

    /// A hostile length prefix: zero and oversized lengths fail typed
    /// before any payload allocation; anything under the cap either
    /// truncates or decodes bounded.
    #[test]
    fn oversized_length_prefixes_fail_typed(
        len in any::<u32>(),
        kind in any::<u8>(),
        body in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.push(kind);
        bytes.extend_from_slice(&body);
        let mut r = &bytes[..];
        let mut offset = 0u64;
        match read_frame(&mut r, &mut offset, MAX_FRAME_LEN) {
            Err(TraceError::LimitExceeded { value, limit, .. }) => {
                prop_assert_eq!(value, len as u64);
                prop_assert_eq!(limit, MAX_FRAME_LEN as u64);
                prop_assert!(len > MAX_FRAME_LEN);
            }
            Err(TraceError::Malformed { offset, .. }) => {
                prop_assert_eq!(len, 0);
                prop_assert_eq!(offset, 0);
            }
            Err(TraceError::Truncated { .. }) => prop_assert!(len as usize > 1 + body.len()),
            Ok(Some(frame)) => prop_assert_eq!(frame.payload.len() + 1, len as usize),
            other => prop_assert!(false, "unexpected read_frame result: {other:?}"),
        }
    }

    /// Garbage spliced into a valid framed stream (the interleaved-
    /// session corruption case): whole frames before the splice still
    /// decode, and the stream fails typed at or after it.
    #[test]
    fn interleaved_garbage_never_panics(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u64..0x4000, any::<u8>(), any::<u64>()),
            1..24,
        ),
        per_frame in 1usize..32,
        splice_at in any::<usize>(),
        garbage in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let mut bytes = framed_stream(&ops, per_frame);
        let at = splice_at % (bytes.len() + 1);
        bytes.splice(at..at, garbage);
        check_framed(&bytes);
    }

    /// A single flipped byte inside one framed batch: the prefix before
    /// the corrupt record survives and `lost()` is exactly the declared
    /// remainder — the quarantine arithmetic the server reports.
    #[test]
    fn event_batch_mutations_account_losses(
        ops in proptest::collection::vec(
            (any::<u8>(), any::<u32>(), 0u64..0x4000, any::<u8>(), any::<u64>()),
            1..24,
        ),
        offset in any::<usize>(),
        value in any::<u8>(),
    ) {
        let trace = trace_from_ops(&ops);
        let declared = trace.events.len() as u32;
        let mut payload = encode_events(&trace.events);
        let n = payload.len();
        payload[offset % n] ^= value | 1;
        let batch = decode_events(&payload, 0, &DecodeLimits::default());
        prop_assert!(batch.events.len() <= trace.events.len());
        if batch.error.is_none() {
            // The flip hit a value field (address, size, length): same
            // shape, different content.
            prop_assert_eq!(batch.declared, declared);
            prop_assert_eq!(batch.lost(), 0);
        } else {
            prop_assert_eq!(
                batch.events.len() as u64 + batch.lost(),
                batch.declared as u64
            );
        }
    }
}
