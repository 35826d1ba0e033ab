//! Versioned binary trace format.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   : b"DGRT"
//! version : u32            (currently 1)
//! count   : u64            number of events
//! events  : count records  (tag: u8, then fields per kind)
//! ```
//!
//! Records:
//!
//! | tag | kind    | fields                              |
//! |-----|---------|--------------------------------------|
//! | 0   | Read    | tid u32, addr u64, size u8           |
//! | 1   | Write   | tid u32, addr u64, size u8           |
//! | 2   | Acquire | tid u32, lock u32                    |
//! | 3   | Release | tid u32, lock u32                    |
//! | 4   | Fork    | parent u32, child u32                |
//! | 5   | Join    | parent u32, child u32                |
//! | 6   | Alloc   | tid u32, addr u64, size u64          |
//! | 7   | Free    | tid u32, addr u64, size u64          |
//! | 8   | AcquireRead   | tid u32, lock u32              |
//! | 9   | ReleaseRead   | tid u32, lock u32              |
//! | 10  | CvSignal      | tid u32, cv u32                |
//! | 11  | CvWait        | tid u32, cv u32                |
//! | 12  | BarrierArrive | tid u32, bar u32               |
//! | 13  | BarrierDepart | tid u32, bar u32               |
//!
//! The module also defines the `DGAS` container for [`AnalysisSummary`]
//! artifacts (see [`summary_to_bytes`]), written and read through the
//! [`crate::snapshot`] codec:
//!
//! ```text
//! magic          : b"DGAS"
//! version        : u32      (3, the only one read: a summary is regenerated, not migrated)
//! fingerprint    : u64      trace content fingerprint
//! trace_events   : u64
//! trace_accesses : u64
//! stats          : 8 × u64  (bytes, accesses per class, in declaration order)
//! count          : u64      number of classified ranges
//! ranges         : count records — start u64, len u64, class u8,
//!                  then for class 2 (locked): lock_count u32, lock u32 …
//! warnings       : count u64, then per warning: tag u8 —
//!                  tag 0 (lock-order cycle): lock_count u32, lock u32 …
//!                  tag 1 (unlocked shared range): start u64, len u64
//! ```
//!
//! # Hardened decoding
//!
//! Decoding is written for hostile inputs: every error is a typed
//! [`TraceError`] distinguishing truncation from corruption, version
//! mismatch, and resource-limit violations, and every allocation is
//! proportional to bytes actually consumed — a forged header claiming
//! 2⁶⁰ events cannot reserve memory up front. [`DecodeLimits`] bounds
//! thread ids (which size dense vector clocks downstream), object
//! range widths, event counts, and summary lockset lengths.
//!
//! [`EventReader`] additionally supports an opt-in *resync* mode
//! ([`ReadOptions::resync`]) that skips over corrupt byte regions one
//! byte at a time until the stream decodes again, counting what was
//! dropped instead of failing the whole run.

use std::io;

use dgrace_vc::Tid;

use crate::snapshot::{SnapshotLimits, SnapshotReader, SnapshotWriter};
use crate::summary::{
    AnalysisSummary, AnalysisWarning, ClassCounts, ClassifiedRange, Fingerprint, LocationClass,
    SummaryStats, SUMMARY_VERSION,
};
use crate::{AccessSize, Addr, Event, EventSource, LockId, Trace, ValidationError, Validator};

const MAGIC: &[u8; 4] = b"DGRT";
const VERSION: u32 = 1;
const SUMMARY_MAGIC: [u8; 4] = *b"DGAS";

/// Largest possible encoded event record (tag 6/7: `1 + 4 + 8 + 8`).
pub(crate) const MAX_EVENT_BYTES: usize = 21;

/// Errors while decoding a trace or summary stream.
///
/// The variants separate the four failure families that callers handle
/// differently: I/O faults, *truncation* (the stream ended mid-record),
/// *corruption* (bytes that cannot encode a record), *version/format
/// mismatch*, and *limit violations* (well-formed but unreasonable values
/// that would exhaust memory downstream). Offsets are absolute byte
/// positions from the start of the stream.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O error.
    Io(io::Error),
    /// Stream does not start with the artifact's magic (`DGRT`, `DGAS`,
    /// `DGSS` or `DGCP`).
    BadMagic([u8; 4]),
    /// Unsupported format version.
    BadVersion(u32),
    /// Unknown event tag at `offset`.
    BadTag {
        /// Absolute byte offset of the tag.
        offset: u64,
        /// The tag byte found.
        tag: u8,
    },
    /// Invalid access-size byte at `offset`.
    BadSize {
        /// Absolute byte offset of the size byte.
        offset: u64,
        /// The size byte found.
        size: u8,
    },
    /// Unknown location-class tag in a `DGAS` summary at `offset`.
    BadClass {
        /// Absolute byte offset of the class byte.
        offset: u64,
        /// The class byte found.
        class: u8,
    },
    /// The stream ended mid-record: `expected` more bytes were needed at
    /// `offset` to finish decoding.
    Truncated {
        /// Absolute byte offset where data ran out.
        offset: u64,
        /// Bytes still required to complete the current record.
        expected: usize,
    },
    /// A decoded value exceeds a [`DecodeLimits`] bound.
    LimitExceeded {
        /// Absolute byte offset of the offending field.
        offset: u64,
        /// Which limit was violated (e.g. `"thread id"`).
        what: &'static str,
        /// The value found in the stream.
        value: u64,
        /// The configured bound.
        limit: u64,
    },
    /// A structurally invalid field in a snapshot/checkpoint stream
    /// (e.g. a boolean byte that is neither 0 nor 1, or non-UTF-8 text).
    Malformed {
        /// Absolute byte offset of the offending field.
        offset: u64,
        /// What was being decoded.
        what: &'static str,
    },
    /// A stored checksum does not match the payload: bit rot, a torn
    /// copy, or any in-place mutation of an artifact after it was
    /// written.
    ChecksumMismatch {
        /// The checksum stored in the artifact.
        expected: u32,
        /// The checksum recomputed over the payload.
        actual: u32,
    },
}

impl TraceError {
    /// True for errors that describe *corrupt bytes inside the event
    /// stream* — the kind a resync pass can skip over. Truncation, I/O
    /// faults, and header-level failures are not resyncable.
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            TraceError::BadTag { .. }
                | TraceError::BadSize { .. }
                | TraceError::BadClass { .. }
                | TraceError::LimitExceeded { .. }
                | TraceError::Malformed { .. }
                | TraceError::ChecksumMismatch { .. }
        )
    }

    /// The absolute byte offset the error points at, when known.
    pub fn offset(&self) -> Option<u64> {
        match self {
            TraceError::BadTag { offset, .. }
            | TraceError::BadSize { offset, .. }
            | TraceError::BadClass { offset, .. }
            | TraceError::Truncated { offset, .. }
            | TraceError::LimitExceeded { offset, .. }
            | TraceError::Malformed { offset, .. } => Some(*offset),
            _ => None,
        }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::BadMagic(m) => write!(f, "bad magic {m:?}: not a dgrace artifact"),
            TraceError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            TraceError::BadTag { offset, tag } => {
                write!(
                    f,
                    "corrupt stream at byte {offset}: unknown event tag {tag}"
                )
            }
            TraceError::BadSize { offset, size } => {
                write!(
                    f,
                    "corrupt stream at byte {offset}: invalid access size {size}"
                )
            }
            TraceError::BadClass { offset, class } => write!(
                f,
                "corrupt stream at byte {offset}: unknown location class {class}"
            ),
            TraceError::Truncated { offset, expected } => write!(
                f,
                "truncated stream at byte {offset}: {expected} more byte(s) expected"
            ),
            TraceError::LimitExceeded {
                offset,
                what,
                value,
                limit,
            } => write!(
                f,
                "limit exceeded at byte {offset}: {what} {value} > {limit}"
            ),
            TraceError::Malformed { offset, what } => {
                write!(f, "corrupt stream at byte {offset}: malformed {what}")
            }
            TraceError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: stored {expected:#010x}, computed {actual:#010x} \
                 (bit rot or a torn copy)"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Sanity bounds applied while decoding untrusted bytes.
///
/// These protect the *decoder's consumers*: a thread id sizes dense
/// vector clocks, an object range width sizes shadow-memory walks, and
/// event/lockset counts guard against allocation bombs. Values inside a
/// limit are accepted as-is; values beyond it produce
/// [`TraceError::LimitExceeded`].
#[derive(Debug, Clone, Copy)]
pub struct DecodeLimits {
    /// Maximum declared event count in a trace header.
    pub max_events: u64,
    /// Maximum thread id appearing in any event.
    pub max_tid: u32,
    /// Maximum `Alloc`/`Free` size and summary range width, in bytes.
    pub max_obj_size: u64,
    /// Maximum number of classified ranges in a summary.
    pub max_ranges: u64,
    /// Maximum lockset length for a single summary range.
    pub max_lockset: u32,
}

impl Default for DecodeLimits {
    fn default() -> Self {
        DecodeLimits {
            max_events: 1 << 36,
            max_tid: 1 << 20,
            max_obj_size: 1 << 32,
            max_ranges: 1 << 24,
            max_lockset: 4096,
        }
    }
}

/// Options controlling [`EventReader`] / [`read_trace_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadOptions {
    /// Decode-time sanity bounds.
    pub limits: DecodeLimits,
    /// When true, corrupt byte regions are skipped (one byte at a time,
    /// re-synchronizing on the next decodable record) instead of failing,
    /// and a truncated tail ends the stream cleanly. Dropped bytes and
    /// events are reported via [`DecodeStats`].
    pub resync: bool,
}

/// What decoding actually consumed, for degraded-mode reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Events the header declared.
    pub declared: u64,
    /// Events successfully decoded.
    pub decoded: u64,
    /// Declared events that could not be recovered (resync mode).
    pub dropped_events: u64,
    /// Raw bytes skipped while re-synchronizing (resync mode).
    pub dropped_bytes: u64,
}

impl DecodeStats {
    /// True when anything was lost.
    pub fn lossy(&self) -> bool {
        self.dropped_events > 0 || self.dropped_bytes > 0
    }
}

/// Writes `trace` to `w` in the binary format.
pub fn write_trace<W: io::Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for ev in trace.iter() {
        write_event(ev, w)?;
    }
    Ok(())
}

pub(crate) fn write_event<W: io::Write>(ev: &Event, w: &mut W) -> io::Result<()> {
    match *ev {
        Event::Read { tid, addr, size } => {
            w.write_all(&[0u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&addr.0.to_le_bytes())?;
            w.write_all(&[size as u8])?;
        }
        Event::Write { tid, addr, size } => {
            w.write_all(&[1u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&addr.0.to_le_bytes())?;
            w.write_all(&[size as u8])?;
        }
        Event::Acquire { tid, lock } => {
            w.write_all(&[2u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&lock.0.to_le_bytes())?;
        }
        Event::Release { tid, lock } => {
            w.write_all(&[3u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&lock.0.to_le_bytes())?;
        }
        Event::Fork { parent, child } => {
            w.write_all(&[4u8])?;
            w.write_all(&parent.0.to_le_bytes())?;
            w.write_all(&child.0.to_le_bytes())?;
        }
        Event::Join { parent, child } => {
            w.write_all(&[5u8])?;
            w.write_all(&parent.0.to_le_bytes())?;
            w.write_all(&child.0.to_le_bytes())?;
        }
        Event::Alloc { tid, addr, size } => {
            w.write_all(&[6u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&addr.0.to_le_bytes())?;
            w.write_all(&size.to_le_bytes())?;
        }
        Event::Free { tid, addr, size } => {
            w.write_all(&[7u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&addr.0.to_le_bytes())?;
            w.write_all(&size.to_le_bytes())?;
        }
        Event::AcquireRead { tid, lock } => {
            w.write_all(&[8u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&lock.0.to_le_bytes())?;
        }
        Event::ReleaseRead { tid, lock } => {
            w.write_all(&[9u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&lock.0.to_le_bytes())?;
        }
        Event::CvSignal { tid, cv } => {
            w.write_all(&[10u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&cv.0.to_le_bytes())?;
        }
        Event::CvWait { tid, cv } => {
            w.write_all(&[11u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&cv.0.to_le_bytes())?;
        }
        Event::BarrierArrive { tid, bar } => {
            w.write_all(&[12u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&bar.0.to_le_bytes())?;
        }
        Event::BarrierDepart { tid, bar } => {
            w.write_all(&[13u8])?;
            w.write_all(&tid.0.to_le_bytes())?;
            w.write_all(&bar.0.to_le_bytes())?;
        }
    }
    Ok(())
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Why [`decode_event`] produced no record. Small and `Copy` so the
/// decode loop's success path never carries a [`TraceError`]; the error
/// (with its offsets and values) is rebuilt from the same bytes by
/// [`Reject::error`], off the hot path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reject {
    /// The window is too short; the record needs this many bytes total.
    NeedMore(usize),
    /// Byte 0 is not an event tag.
    BadTag,
    /// Byte 13 of an access record is not an access size.
    BadSize,
    /// The thread id at this byte of the record exceeds `max_tid`.
    Tid(usize),
    /// An `Alloc`/`Free` size exceeds `max_obj_size`.
    ObjSize,
    /// `addr + size` of an `Alloc`/`Free` wraps.
    ObjWrap,
}

impl Reject {
    /// The typed error for a rejection of `buf`, whose first byte sits at
    /// absolute stream position `offset`.
    #[cold]
    pub(crate) fn error(self, buf: &[u8], offset: u64, limits: &DecodeLimits) -> TraceError {
        match self {
            Reject::NeedMore(need) => TraceError::Truncated {
                offset: offset + buf.len() as u64,
                expected: need - buf.len(),
            },
            Reject::BadTag => TraceError::BadTag {
                offset,
                tag: buf[0],
            },
            Reject::BadSize => TraceError::BadSize {
                offset: offset + 13,
                size: buf[13],
            },
            Reject::Tid(at) => TraceError::LimitExceeded {
                offset: offset + at as u64,
                what: "thread id",
                value: le_u32(&buf[at..]) as u64,
                limit: limits.max_tid as u64,
            },
            Reject::ObjSize => TraceError::LimitExceeded {
                offset: offset + 13,
                what: "object size",
                value: le_u64(&buf[13..]),
                limit: limits.max_obj_size,
            },
            Reject::ObjWrap => TraceError::LimitExceeded {
                offset: offset + 13,
                what: "object end (addr + size wraps)",
                value: le_u64(&buf[13..]),
                limit: u64::MAX - le_u64(&buf[5..]),
            },
        }
    }
}

/// Decodes one event from the front of `buf`, returning it with the
/// number of bytes it spans. The only record decoder in the workspace:
/// the file reader and the frame codec both sit on it. Never panics and
/// never allocates.
#[inline(always)]
pub(crate) fn decode_event(buf: &[u8], limits: &DecodeLimits) -> Result<(Event, usize), Reject> {
    // Each arm takes its record as a fixed-size array, so the length is
    // checked once and every field read is a plain load.
    #[inline(always)]
    fn record<const N: usize>(buf: &[u8]) -> Result<&[u8; N], Reject> {
        buf.first_chunk().ok_or(Reject::NeedMore(N))
    }
    #[inline(always)]
    fn tid_at(rec: &[u8], at: usize, limits: &DecodeLimits) -> Result<Tid, Reject> {
        let raw = le_u32(&rec[at..]);
        if raw > limits.max_tid {
            return Err(Reject::Tid(at));
        }
        Ok(Tid(raw))
    }
    let Some(&tag) = buf.first() else {
        return Err(Reject::NeedMore(1));
    };
    match tag {
        0 | 1 => {
            let rec = record::<14>(buf)?;
            let tid = tid_at(rec, 1, limits)?;
            let addr = Addr(le_u64(&rec[5..]));
            let size = AccessSize::from_bytes(rec[13] as u64).ok_or(Reject::BadSize)?;
            let ev = if tag == 0 {
                Event::Read { tid, addr, size }
            } else {
                Event::Write { tid, addr, size }
            };
            Ok((ev, 14))
        }
        2..=5 | 8..=13 => {
            let rec = record::<9>(buf)?;
            let tid = tid_at(rec, 1, limits)?;
            let obj = LockId(le_u32(&rec[5..]));
            let ev = match tag {
                2 => Event::Acquire { tid, lock: obj },
                3 => Event::Release { tid, lock: obj },
                4 => Event::Fork {
                    parent: tid,
                    child: tid_at(rec, 5, limits)?,
                },
                5 => Event::Join {
                    parent: tid,
                    child: tid_at(rec, 5, limits)?,
                },
                8 => Event::AcquireRead { tid, lock: obj },
                9 => Event::ReleaseRead { tid, lock: obj },
                10 => Event::CvSignal { tid, cv: obj },
                11 => Event::CvWait { tid, cv: obj },
                12 => Event::BarrierArrive { tid, bar: obj },
                _ => Event::BarrierDepart { tid, bar: obj },
            };
            Ok((ev, 9))
        }
        6 | 7 => {
            let rec = record::<MAX_EVENT_BYTES>(buf)?;
            let tid = tid_at(rec, 1, limits)?;
            let addr = Addr(le_u64(&rec[5..]));
            let size = le_u64(&rec[13..]);
            if size > limits.max_obj_size {
                return Err(Reject::ObjSize);
            }
            if addr.0.checked_add(size).is_none() {
                return Err(Reject::ObjWrap);
            }
            let ev = if tag == 6 {
                Event::Alloc { tid, addr, size }
            } else {
                Event::Free { tid, addr, size }
            };
            Ok((ev, MAX_EVENT_BYTES))
        }
        _ => Err(Reject::BadTag),
    }
}

/// Reads a trace from `r` with default options.
pub fn read_trace<R: io::Read>(r: &mut R) -> Result<Trace, TraceError> {
    read_trace_with(r, ReadOptions::default()).map(|(t, _)| t)
}

/// Reads a trace from `r` under explicit [`ReadOptions`], reporting what
/// was decoded and what was dropped.
pub fn read_trace_with<R: io::Read>(
    r: &mut R,
    opts: ReadOptions,
) -> Result<(Trace, DecodeStats), TraceError> {
    let mut reader = EventReader::with_options(r, opts)?;
    // Capacity is bounded regardless of the (untrusted) declared count:
    // growth past this is paid for by bytes actually present.
    let mut events = Vec::with_capacity(reader.remaining().min(1 << 16) as usize);
    reader.read_block(&mut events, usize::MAX)?;
    let stats = reader.stats();
    Ok((Trace { events }, stats))
}

/// Bytes of the stream an [`EventReader`] holds at a time.
const WINDOW_BYTES: usize = 64 * 1024;

/// A streaming event reader: decodes a block of events at a time, so
/// traces far larger than memory can be fed straight into a detector —
/// which is how `dgrace detect` reads its input (see [`BlockReader`]).
///
/// The reader holds a fixed 64 KiB window of the stream, filled by
/// reading straight into it, and decodes from that. Keeping at least one
/// maximum-size record in the window (until the source is exhausted)
/// lets it distinguish a cleanly exhausted stream from a mid-record
/// truncation ([`TraceError::Truncated`]) and, in
/// [resync mode](ReadOptions::resync), slide byte-by-byte over corrupt
/// regions.
///
/// ```
/// use dgrace_trace::io::{to_bytes, EventReader};
/// use dgrace_trace::{AccessSize, TraceBuilder};
///
/// let mut b = TraceBuilder::new();
/// b.write(0u32, 0x10u64, AccessSize::U32);
/// let bytes = to_bytes(&b.build());
///
/// let mut reader = EventReader::new(std::io::Cursor::new(bytes)).unwrap();
/// assert_eq!(reader.remaining(), 1);
/// let ev = reader.next().unwrap().unwrap();
/// assert!(ev.is_access());
/// assert!(reader.next().is_none());
/// ```
pub struct EventReader<R> {
    src: R,
    /// The window: `buf[pos..end]` is read but undecoded.
    buf: Box<[u8]>,
    pos: usize,
    end: usize,
    /// Absolute stream offset of `buf[pos]`.
    offset: u64,
    declared: u64,
    decoded: u64,
    dropped_bytes: u64,
    eof: bool,
    /// Set after yielding an error; the reader is fused afterwards.
    failed: bool,
    limits: DecodeLimits,
    resync: bool,
}

impl<R: io::Read> EventReader<R> {
    /// Opens a stream with default options, consuming and checking the
    /// header.
    pub fn new(src: R) -> Result<Self, TraceError> {
        Self::with_options(src, ReadOptions::default())
    }

    /// Opens a stream, consuming and checking the header.
    pub fn with_options(src: R, opts: ReadOptions) -> Result<Self, TraceError> {
        let mut reader = EventReader {
            src,
            buf: vec![0u8; WINDOW_BYTES].into_boxed_slice(),
            pos: 0,
            end: 0,
            offset: 0,
            declared: 0,
            decoded: 0,
            dropped_bytes: 0,
            eof: false,
            failed: false,
            limits: opts.limits,
            resync: opts.resync,
        };
        let mut header = [0u8; 4];
        reader.fill_exact(&mut header)?;
        if &header != MAGIC {
            return Err(TraceError::BadMagic(header));
        }
        reader.fill_exact(&mut header)?;
        let version = le_u32(&header);
        if version != VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let mut count = [0u8; 8];
        reader.fill_exact(&mut count)?;
        let declared = le_u64(&count);
        if declared > opts.limits.max_events {
            return Err(TraceError::LimitExceeded {
                offset: 8,
                what: "event count",
                value: declared,
                limit: opts.limits.max_events,
            });
        }
        reader.declared = declared;
        Ok(reader)
    }

    /// Events not yet read (per the declared header count).
    pub fn remaining(&self) -> u64 {
        self.declared - self.decoded.min(self.declared)
    }

    /// What has been consumed and dropped so far. Loss counters are final
    /// once the reader is exhausted.
    pub fn stats(&self) -> DecodeStats {
        DecodeStats {
            declared: self.declared,
            decoded: self.decoded,
            dropped_events: self.declared.saturating_sub(self.decoded),
            dropped_bytes: self.dropped_bytes,
        }
    }

    /// Decodes up to `max` events onto the end of `out` and returns how
    /// many: `0` once the stream is exhausted (every declared event
    /// decoded, or — in resync mode — the bytes ran out) or after an
    /// error. On `Err`, the events that decoded before the failing
    /// record are already in `out`, and the reader is fused.
    pub fn read_block(&mut self, out: &mut Vec<Event>, max: usize) -> Result<usize, TraceError> {
        self.decode_into(max, |ev| out.push(ev))
    }

    /// The decode loop behind [`read_block`](Self::read_block) and
    /// [`Iterator::next`]: runs of records decoded straight out of the
    /// window, and between runs whatever stopped the last one.
    fn decode_into(
        &mut self,
        max: usize,
        mut sink: impl FnMut(Event),
    ) -> Result<usize, TraceError> {
        let mut n = 0;
        while !self.failed {
            let owed = usize::try_from(self.remaining()).unwrap_or(usize::MAX);
            let run = (max - n).min(owed);
            let window = &self.buf[self.pos..self.end];
            let (mut events, mut bytes) = (0, 0);
            let reject = loop {
                if events == run {
                    break None;
                }
                match decode_event(&window[bytes..], &self.limits) {
                    Ok((ev, used)) => {
                        sink(ev);
                        events += 1;
                        bytes += used;
                    }
                    Err(reject) => break Some(reject),
                }
            };
            n += events;
            self.decoded += events as u64;
            self.pos += bytes;
            self.offset += bytes as u64;
            match reject {
                None => break,
                // The window ran out before the stream did.
                Some(Reject::NeedMore(_)) if !self.eof => {
                    if let Err(e) = self.refill() {
                        self.failed = true;
                        return Err(e);
                    }
                }
                // The stream ended with events still owed — between
                // records (an empty window) or inside one. Resync counts
                // a partial tail as dropped bytes and ends cleanly.
                Some(Reject::NeedMore(_)) if self.resync => {
                    self.skip_bytes(self.available());
                    break;
                }
                // Every other rejection is corrupt bytes: slide over one.
                Some(_) if self.resync => self.skip_bytes(1),
                Some(reject) => {
                    self.failed = true;
                    let window = &self.buf[self.pos..self.end];
                    return Err(reject.error(window, self.offset, &self.limits));
                }
            }
        }
        Ok(n)
    }

    /// Reads exactly `out.len()` bytes from the current position,
    /// reporting truncation with the absolute offset.
    fn fill_exact(&mut self, out: &mut [u8]) -> Result<(), TraceError> {
        let mut n = 0;
        while n < out.len() {
            if self.pos < self.end {
                let take = self.available().min(out.len() - n);
                out[n..n + take].copy_from_slice(&self.buf[self.pos..self.pos + take]);
                self.pos += take;
                n += take;
                continue;
            }
            if self.eof {
                self.offset += n as u64;
                return Err(TraceError::Truncated {
                    offset: self.offset,
                    expected: out.len() - n,
                });
            }
            self.refill()?;
        }
        self.offset += n as u64;
        Ok(())
    }

    /// Moves the undecoded tail to the front of the window and reads
    /// into the rest until it holds at least one maximum-size record (or
    /// the source is exhausted).
    fn refill(&mut self) -> Result<(), TraceError> {
        self.buf.copy_within(self.pos..self.end, 0);
        self.end -= self.pos;
        self.pos = 0;
        while !self.eof && self.end < MAX_EVENT_BYTES {
            match self.src.read(&mut self.buf[self.end..]) {
                Ok(0) => self.eof = true,
                Ok(k) => self.end += k,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(TraceError::Io(e)),
            }
        }
        Ok(())
    }

    /// Bytes currently available without further reads.
    fn available(&self) -> usize {
        self.end - self.pos
    }

    /// Drops `n` bytes from the front of the window (resync slide).
    fn skip_bytes(&mut self, n: usize) {
        self.pos += n;
        self.offset += n as u64;
        self.dropped_bytes += n as u64;
    }
}

impl<R: io::Read> Iterator for EventReader<R> {
    type Item = Result<Event, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut next = None;
        match self.decode_into(1, |ev| next = Some(ev)) {
            Ok(_) => next.map(Ok),
            Err(e) => Some(Err(e)),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.failed {
            return (0, Some(0));
        }
        let n = self.remaining() as usize;
        // In resync mode events may be dropped, so `n` is only an upper
        // bound.
        (if self.resync { 0 } else { n }, Some(n))
    }
}

/// Events per block of a [`BlockReader`] unless told otherwise: 192 KiB
/// of events, small enough to stay cache-resident between the decoder
/// that writes a block and the detector that reads it.
pub const BLOCK_EVENTS: usize = 8192;

/// An [`EventSource`] over a `.dgrt` stream, and the one place a stream
/// is checked as it is read: an [`EventReader`] decoding into one reused
/// block, so memory does not grow with the trace.
///
/// Every block is validated before it is handed out, and the reader
/// keeps the tally a detection run reports at the end — event count,
/// thread count, [`DecodeStats`], the schedule's first defect and, when
/// asked for, the content [`Fingerprint`] — so one pass over the stream
/// both feeds a detector and checks it ([`finish`](Self::finish)).
///
/// An invalid event ends what is handed out, unless the reader resyncs
/// (where a lossy recovery may break well-formedness and detectors
/// tolerate that): the block holding it is withheld, and the rest of the
/// stream is decoded without being handed out, so that a decode error
/// anywhere in it still wins over the validation error before it.
///
/// Its length is the header's declared count: exact, since a stream that
/// decodes to any other count fails, except under resync, where it is an
/// upper bound.
pub struct BlockReader<R> {
    reader: EventReader<R>,
    block: Vec<Event>,
    block_events: usize,
    /// What the blocks read so far showed.
    tally: Tally,
}

/// What a [`BlockReader`] learns about a stream by reading it.
struct Tally {
    validator: Validator,
    valid: Result<(), ValidationError>,
    max_tid: Option<Tid>,
    fingerprint: Option<Fingerprint>,
}

impl Tally {
    /// Takes in the next block; true while the schedule is valid.
    fn take(&mut self, block: &[Event]) -> bool {
        if self.valid.is_ok() {
            self.valid = block.iter().try_for_each(|ev| self.validator.step(ev));
        }
        if let Some(fp) = self.fingerprint.as_mut() {
            fp.update(block);
        }
        self.max_tid = self.max_tid.max(block.iter().flat_map(Event::tids).max());
        self.valid.is_ok()
    }
}

/// What a [`BlockReader`] read to its end knows about the stream: what
/// a run reports, and checks, once its one pass is over.
#[derive(Debug)]
pub struct TraceFacts {
    /// Events the stream decoded to (under resync, what survived).
    pub events: u64,
    /// Max thread id + 1.
    pub threads: usize,
    /// Decode-loss counters.
    pub dstats: DecodeStats,
    /// Content fingerprint, when the reader was
    /// [`fingerprinted`](BlockReader::fingerprinted).
    pub fingerprint: Option<u64>,
    /// The schedule's first defect, if it has one.
    pub valid: Result<(), ValidationError>,
}

impl<R: io::Read> BlockReader<R> {
    /// A source over `reader` (not yet read from), in blocks of
    /// [`BLOCK_EVENTS`].
    pub fn new(reader: EventReader<R>) -> Self {
        Self::with_block_events(reader, BLOCK_EVENTS)
    }

    /// [`new`](Self::new) with an explicit block size (at least 1).
    pub fn with_block_events(reader: EventReader<R>, block_events: usize) -> Self {
        BlockReader {
            reader,
            block: Vec::new(),
            block_events: block_events.max(1),
            tally: Tally {
                validator: Validator::new(),
                valid: Ok(()),
                max_tid: None,
                fingerprint: None,
            },
        }
    }

    /// Also fingerprints the stream, for [`TraceFacts::fingerprint`].
    pub fn fingerprinted(mut self) -> Self {
        self.tally.fingerprint = Some(Fingerprint::new());
        self
    }

    /// Reads what is left of the stream with no one to hand it to.
    pub fn drain(&mut self) -> Result<(), TraceError> {
        while !self.next_block()?.is_empty() {}
        Ok(())
    }

    /// The tally, once the stream has been read to its end.
    pub fn finish(self) -> TraceFacts {
        let (dstats, t) = (self.reader.stats(), self.tally);
        TraceFacts {
            events: dstats.decoded,
            threads: t.max_tid.map_or(0, |t| t.index() + 1),
            dstats,
            fingerprint: t.fingerprint.map(Fingerprint::finish),
            valid: t.valid,
        }
    }
}

impl<R: io::Read> EventSource for BlockReader<R> {
    fn remaining(&self) -> u64 {
        self.reader.remaining()
    }

    fn next_block(&mut self) -> Result<&[Event], TraceError> {
        self.block.clear();
        self.reader.read_block(&mut self.block, self.block_events)?;
        if !self.tally.take(&self.block) && !self.reader.resync {
            self.block.clear();
            while self.reader.read_block(&mut self.block, self.block_events)? > 0 {
                self.block.clear();
            }
        }
        Ok(&self.block)
    }
}

/// Serializes a trace to a byte vector.
pub fn to_bytes(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + trace.len() * 14);
    write_trace(trace, &mut buf).expect("writing to Vec cannot fail");
    buf
}

/// Deserializes a trace from a byte slice.
pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
    read_trace(&mut io::Cursor::new(bytes))
}

/// Serializes a summary in the `DGAS` format.
pub fn summary_to_bytes(summary: &AnalysisSummary) -> Vec<u8> {
    let mut w = SnapshotWriter::new(SUMMARY_MAGIC, SUMMARY_VERSION);
    w.u64(summary.fingerprint);
    w.u64(summary.trace_events);
    w.u64(summary.trace_accesses);
    for c in [
        summary.stats.thread_local,
        summary.stats.read_only,
        summary.stats.locked,
        summary.stats.contended,
    ] {
        w.u64(c.bytes);
        w.u64(c.accesses);
    }
    w.count(summary.ranges.len());
    for r in &summary.ranges {
        w.u64(r.start.0);
        w.u64(r.len);
        match &r.class {
            LocationClass::ThreadLocal => w.u8(0),
            LocationClass::ReadOnlyAfterInit => w.u8(1),
            LocationClass::ConsistentlyLocked { lockset } => {
                w.u8(2);
                write_locks(&mut w, lockset);
            }
            LocationClass::Contended => w.u8(3),
        }
    }
    w.count(summary.warnings.len());
    for warning in &summary.warnings {
        match warning {
            AnalysisWarning::LockOrderCycle { locks } => {
                w.u8(0);
                write_locks(&mut w, locks);
            }
            AnalysisWarning::UnlockedSharedRange { start, len } => {
                w.u8(1);
                w.u64(start.0);
                w.u64(*len);
            }
        }
    }
    w.finish()
}

fn write_locks(w: &mut SnapshotWriter, locks: &[LockId]) {
    w.u32(locks.len() as u32);
    for l in locks {
        w.u32(l.0);
    }
}

/// Deserializes a `DGAS` summary, under [`DecodeLimits::default`].
pub fn summary_from_bytes(bytes: &[u8]) -> Result<AnalysisSummary, TraceError> {
    let limits = DecodeLimits::default();
    let mut r = SnapshotReader::new(
        bytes,
        SUMMARY_MAGIC,
        SUMMARY_VERSION,
        SnapshotLimits {
            max_items: limits.max_ranges,
            ..SnapshotLimits::default()
        },
    )?;
    let fingerprint = r.u64()?;
    let trace_events = r.u64()?;
    let trace_accesses = r.u64()?;
    let mut counts = [ClassCounts::default(); 4];
    for cc in &mut counts {
        cc.bytes = r.u64()?;
        cc.accesses = r.u64()?;
    }
    let stats = SummaryStats {
        thread_local: counts[0],
        read_only: counts[1],
        locked: counts[2],
        contended: counts[3],
    };
    let n = r.count("range count")?;
    let mut ranges = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Addr(r.u64()?);
        let len_off = r.offset();
        let len = r.u64()?;
        if len > limits.max_obj_size {
            return Err(TraceError::LimitExceeded {
                offset: len_off,
                what: "range width",
                value: len,
                limit: limits.max_obj_size,
            });
        }
        if start.0.checked_add(len).is_none() {
            return Err(TraceError::LimitExceeded {
                offset: len_off,
                what: "range end (start + len wraps)",
                value: len,
                limit: u64::MAX - start.0,
            });
        }
        let tag_off = r.offset();
        let class = match r.u8()? {
            0 => LocationClass::ThreadLocal,
            1 => LocationClass::ReadOnlyAfterInit,
            2 => LocationClass::ConsistentlyLocked {
                lockset: read_locks(&mut r, &limits)?,
            },
            3 => LocationClass::Contended,
            class => {
                return Err(TraceError::BadClass {
                    offset: tag_off,
                    class,
                })
            }
        };
        ranges.push(ClassifiedRange { start, len, class });
    }
    let n = r.count("warning count")?;
    let mut warnings = Vec::with_capacity(n);
    for _ in 0..n {
        let tag_off = r.offset();
        warnings.push(match r.u8()? {
            0 => AnalysisWarning::LockOrderCycle {
                locks: read_locks(&mut r, &limits)?,
            },
            1 => AnalysisWarning::UnlockedSharedRange {
                start: Addr(r.u64()?),
                len: r.u64()?,
            },
            class => {
                return Err(TraceError::BadClass {
                    offset: tag_off,
                    class,
                })
            }
        });
    }
    Ok(AnalysisSummary {
        fingerprint,
        trace_events,
        trace_accesses,
        ranges,
        stats,
        warnings,
    })
}

/// Reads a [`write_locks`]d list, bounded by `max_lockset`.
fn read_locks(
    r: &mut SnapshotReader<'_>,
    limits: &DecodeLimits,
) -> Result<Vec<LockId>, TraceError> {
    let at = r.offset();
    let n = r.u32()?;
    if n > limits.max_lockset {
        return Err(TraceError::LimitExceeded {
            offset: at,
            what: "lockset length",
            value: n as u64,
            limit: limits.max_lockset as u64,
        });
    }
    (0..n).map(|_| r.u32().map(LockId)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new();
        b.fork(0u32, 1u32)
            .alloc(0u32, 0x1000u64, 64)
            .acquire(1u32, 2u32)
            .write(1u32, 0x1000u64, AccessSize::U64)
            .read(1u32, 0x1004u64, AccessSize::U16)
            .release(1u32, 2u32)
            .free(0u32, 0x1000u64, 64)
            .join(0u32, 1u32);
        b.build()
    }

    #[test]
    fn roundtrip_all_event_kinds() {
        let t = sample();
        let bytes = to_bytes(&t);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(TraceError::BadMagic(_))));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = to_bytes(&sample());
        bytes[4] = 99;
        assert!(matches!(
            from_bytes(&bytes),
            Err(TraceError::BadVersion(99))
        ));
    }

    #[test]
    fn truncated_stream_reports_offset() {
        let bytes = to_bytes(&sample());
        let cut = bytes.len() - 3;
        match from_bytes(&bytes[..cut]) {
            Err(TraceError::Truncated { offset, expected }) => {
                assert_eq!(offset as usize, cut);
                assert_eq!(expected, 3);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_reported() {
        assert!(matches!(
            from_bytes(b"DGRT\x01\x00"),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_tag_rejected() {
        let t = Trace::new();
        let mut bytes = to_bytes(&t);
        // Claim one event, then supply a bogus tag.
        bytes[8..16].copy_from_slice(&1u64.to_le_bytes());
        bytes.push(42);
        assert!(matches!(
            from_bytes(&bytes),
            Err(TraceError::BadTag {
                offset: 16,
                tag: 42
            })
        ));
    }

    #[test]
    fn bad_size_rejected() {
        let mut b = TraceBuilder::new();
        b.read(0u32, 0u64, AccessSize::U8);
        let mut bytes = to_bytes(&b.build());
        let n = bytes.len();
        bytes[n - 1] = 3; // 3 is not a valid access size
        assert!(matches!(
            from_bytes(&bytes),
            Err(TraceError::BadSize { size: 3, .. })
        ));
    }

    #[test]
    fn oversized_tid_rejected() {
        let mut b = TraceBuilder::new();
        b.read(0u32, 0u64, AccessSize::U8);
        let mut bytes = to_bytes(&b.build());
        // Patch the tid field of the sole event to u32::MAX.
        bytes[17..21].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes(&bytes),
            Err(TraceError::LimitExceeded {
                what: "thread id",
                ..
            })
        ));
    }

    #[test]
    fn oversized_alloc_rejected() {
        let mut b = TraceBuilder::new();
        b.alloc(0u32, 0x1000u64, 64);
        let mut bytes = to_bytes(&b.build());
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes(&bytes),
            Err(TraceError::LimitExceeded {
                what: "object size",
                ..
            })
        ));
    }

    #[test]
    fn declared_count_is_bounded() {
        let mut bytes = to_bytes(&Trace::new());
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            from_bytes(&bytes),
            Err(TraceError::LimitExceeded {
                what: "event count",
                ..
            })
        ));
    }

    #[test]
    fn forged_count_does_not_preallocate() {
        // Declares 2^35 events but supplies none: must fail fast on the
        // truncation without reserving event storage up front.
        let mut bytes = to_bytes(&Trace::new());
        bytes[8..16].copy_from_slice(&(1u64 << 35).to_le_bytes());
        assert!(matches!(
            from_bytes(&bytes),
            Err(TraceError::Truncated { offset: 16, .. })
        ));
    }

    #[test]
    fn event_reader_streams_all_events() {
        let t = sample();
        let bytes = to_bytes(&t);
        let reader = EventReader::new(io::Cursor::new(&bytes)).unwrap();
        assert_eq!(reader.remaining() as usize, t.len());
        let events: Result<Vec<_>, _> = reader.collect();
        assert_eq!(events.unwrap(), t.events);
    }

    #[test]
    fn event_reader_reports_truncation() {
        let bytes = to_bytes(&sample());
        let cut = bytes.len() - 2;
        let mut reader = EventReader::new(io::Cursor::new(&bytes[..cut])).unwrap();
        let last = reader.by_ref().last().unwrap();
        match last {
            Err(TraceError::Truncated { offset, expected }) => {
                assert_eq!(
                    offset as usize, cut,
                    "offset points at the byte that ran out"
                );
                assert_eq!(expected, 2, "the final Join record is short two bytes");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // The iterator is fused after the error.
        assert!(reader.next().is_none());
    }

    #[test]
    fn event_reader_rejects_bad_header() {
        assert!(matches!(
            EventReader::new(io::Cursor::new(b"XXXX".to_vec())),
            Err(TraceError::BadMagic(_))
        ));
    }

    #[test]
    fn resync_skips_corrupt_bytes() {
        let t = sample();
        let mut bytes = to_bytes(&t);
        // Corrupt the tag of the third event (fork 9B + alloc 21B in).
        let corrupt_at = 16 + 9 + 21;
        bytes[corrupt_at] = 0xEE;
        let opts = ReadOptions {
            resync: true,
            ..Default::default()
        };
        let (back, stats) = read_trace_with(&mut io::Cursor::new(&bytes), opts).unwrap();
        assert!(back.len() < t.len(), "at least the corrupt event was lost");
        assert!(stats.lossy());
        assert!(stats.dropped_bytes >= 1);
        assert_eq!(stats.decoded, back.len() as u64);
        // Everything decoded is an event from the original trace, in order.
        let mut orig = t.events.iter();
        for ev in back.iter() {
            assert!(
                orig.any(|o| o == ev),
                "resynced event {ev:?} not in original"
            );
        }
    }

    #[test]
    fn resync_tolerates_truncated_tail() {
        let t = sample();
        let bytes = to_bytes(&t);
        let opts = ReadOptions {
            resync: true,
            ..Default::default()
        };
        let cut = bytes.len() - 2;
        let (back, stats) = read_trace_with(&mut io::Cursor::new(&bytes[..cut]), opts).unwrap();
        assert_eq!(back.len(), t.len() - 1);
        assert_eq!(stats.dropped_events, 1);
        assert_eq!(stats.dropped_bytes, 7, "partial Join record counted");
    }

    #[test]
    fn strict_mode_reports_stats_without_loss() {
        let bytes = to_bytes(&sample());
        let (back, stats) =
            read_trace_with(&mut io::Cursor::new(&bytes), ReadOptions::default()).unwrap();
        assert_eq!(back, sample());
        assert!(!stats.lossy());
        assert_eq!(stats.declared, stats.decoded);
    }

    /// Every block `source` hands out, until the empty one.
    fn drained<R: io::Read>(source: &mut BlockReader<R>) -> Result<Vec<Vec<Event>>, TraceError> {
        let mut blocks = Vec::new();
        loop {
            match source.next_block()? {
                [] => return Ok(blocks),
                block => blocks.push(block.to_vec()),
            }
        }
    }

    #[test]
    fn block_reader_yields_the_trace_in_blocks_then_its_tally() {
        let t = sample();
        let bytes = to_bytes(&t);
        let reader = EventReader::new(&bytes[..]).unwrap();
        let mut source = BlockReader::with_block_events(reader, 3).fingerprinted();
        assert_eq!(source.remaining(), t.len() as u64, "the header's count");
        let blocks = drained(&mut source).unwrap();
        assert_eq!(blocks.iter().map(Vec::len).collect::<Vec<_>>(), [3, 3, 2]);
        assert_eq!(blocks.concat(), t.events);
        let facts = source.finish();
        assert_eq!(facts.events, t.len() as u64);
        assert_eq!(facts.threads, t.thread_count());
        assert_eq!(facts.dstats.decoded, t.len() as u64);
        assert_eq!(facts.fingerprint, Some(crate::trace_fingerprint(&t)));
        assert!(facts.valid.is_ok());
    }

    /// `sample()` with event 2 made a release of a lock nobody holds.
    fn invalid_at_2() -> Vec<u8> {
        let mut events = sample().events;
        events[2] = Event::Release {
            tid: Tid(1),
            lock: LockId(9),
        };
        to_bytes(&Trace::from_events(events))
    }

    #[test]
    fn an_invalid_event_withholds_its_block_and_the_rest() {
        let bytes = invalid_at_2();
        let reader = EventReader::new(&bytes[..]).unwrap();
        let mut source = BlockReader::with_block_events(reader, 2);
        let blocks = drained(&mut source).unwrap();
        assert_eq!(blocks.concat(), &sample().events[..2]);
        let facts = source.finish();
        assert_eq!(facts.events, 8, "the rest is still decoded");
        assert!(matches!(
            facts.valid,
            Err(ValidationError::ReleaseWithoutAcquire { at: 2, .. })
        ));

        // A decode error after the invalid event still fails the read.
        let mut bytes = invalid_at_2();
        let len = bytes.len();
        bytes[len - 9] = 0xEE;
        let reader = EventReader::new(&bytes[..]).unwrap();
        let mut source = BlockReader::with_block_events(reader, 2);
        assert!(matches!(
            drained(&mut source),
            Err(TraceError::BadTag { tag: 0xEE, .. })
        ));

        // Under resync the schedule's defect is noted, and every event
        // is still handed out.
        let bytes = invalid_at_2();
        let opts = ReadOptions {
            resync: true,
            ..ReadOptions::default()
        };
        let reader = EventReader::with_options(&bytes[..], opts).unwrap();
        let mut source = BlockReader::with_block_events(reader, 2);
        assert_eq!(drained(&mut source).unwrap().concat().len(), 8);
        assert!(source.finish().valid.is_err());
    }

    #[test]
    fn a_trace_in_memory_is_a_one_block_source() {
        let t = sample();
        let mut source = &t;
        assert_eq!(EventSource::remaining(&source), t.len() as u64);
        assert_eq!(source.next_block().unwrap(), &t.events[..]);
        assert_eq!(EventSource::remaining(&source), 0);
        assert!(source.next_block().unwrap().is_empty());
    }

    #[test]
    fn empty_trace_roundtrip() {
        let t = Trace::new();
        assert_eq!(from_bytes(&to_bytes(&t)).unwrap(), t);
    }

    fn sample_summary() -> AnalysisSummary {
        AnalysisSummary {
            fingerprint: 0xfeed_f00d_dead_beef,
            trace_events: 42,
            trace_accesses: 30,
            warnings: vec![
                AnalysisWarning::LockOrderCycle {
                    locks: vec![LockId(1), LockId(7)],
                },
                AnalysisWarning::UnlockedSharedRange {
                    start: Addr(0x300),
                    len: 32,
                },
            ],
            ranges: vec![
                ClassifiedRange {
                    start: Addr(0x100),
                    len: 16,
                    class: LocationClass::ThreadLocal,
                },
                ClassifiedRange {
                    start: Addr(0x110),
                    len: 8,
                    class: LocationClass::ReadOnlyAfterInit,
                },
                ClassifiedRange {
                    start: Addr(0x200),
                    len: 4,
                    class: LocationClass::ConsistentlyLocked {
                        lockset: vec![LockId(1), LockId(7)],
                    },
                },
                ClassifiedRange {
                    start: Addr(0x300),
                    len: 32,
                    class: LocationClass::Contended,
                },
            ],
            stats: SummaryStats {
                thread_local: ClassCounts {
                    bytes: 16,
                    accesses: 10,
                },
                read_only: ClassCounts {
                    bytes: 8,
                    accesses: 5,
                },
                locked: ClassCounts {
                    bytes: 4,
                    accesses: 7,
                },
                contended: ClassCounts {
                    bytes: 32,
                    accesses: 8,
                },
            },
        }
    }

    #[test]
    fn summary_roundtrip_all_classes() {
        let s = sample_summary();
        let back = summary_from_bytes(&summary_to_bytes(&s)).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn summary_empty_roundtrip() {
        let s = AnalysisSummary::default();
        assert_eq!(summary_from_bytes(&summary_to_bytes(&s)).unwrap(), s);
    }

    #[test]
    fn summary_bad_magic_rejected() {
        let bytes = to_bytes(&sample());
        // A DGRT trace is not a DGAS summary.
        assert!(matches!(
            summary_from_bytes(&bytes),
            Err(TraceError::BadMagic(_))
        ));
    }

    #[test]
    fn summary_bad_version_rejected() {
        // Any version but the current one, the two older ones included:
        // a summary is regenerated from its trace, not migrated.
        for version in [1u8, 2, 99] {
            let mut bytes = summary_to_bytes(&sample_summary());
            bytes[4] = version;
            assert!(matches!(
                summary_from_bytes(&bytes),
                Err(TraceError::BadVersion(v)) if v == version as u32
            ));
        }
    }

    #[test]
    fn summary_bad_class_rejected() {
        let s = AnalysisSummary {
            ranges: vec![ClassifiedRange {
                start: Addr(0),
                len: 1,
                class: LocationClass::ThreadLocal,
            }],
            ..Default::default()
        };
        let mut bytes = summary_to_bytes(&s);
        // The class tag of the sole range sits just before the empty
        // warning section's count (one u64 of zeros).
        let n = bytes.len();
        bytes[n - 9] = 9;
        assert!(matches!(
            summary_from_bytes(&bytes),
            Err(TraceError::BadClass { class: 9, .. })
        ));
    }

    #[test]
    fn summary_truncation_reports_offset() {
        let bytes = summary_to_bytes(&sample_summary());
        let cut = bytes.len() - 2;
        match summary_from_bytes(&bytes[..cut]) {
            Err(TraceError::Truncated { offset, .. }) => assert!(offset as usize <= cut),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn summary_lockset_bomb_rejected() {
        let s = AnalysisSummary {
            ranges: vec![ClassifiedRange {
                start: Addr(0),
                len: 4,
                class: LocationClass::ConsistentlyLocked { lockset: vec![] },
            }],
            ..Default::default()
        };
        let mut bytes = summary_to_bytes(&s);
        // Patch the lockset count (4 bytes before the warning count) to
        // u32::MAX.
        let n = bytes.len();
        bytes[n - 12..n - 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            summary_from_bytes(&bytes),
            Err(TraceError::LimitExceeded {
                what: "lockset length",
                ..
            })
        ));
    }

    #[test]
    fn summary_range_count_bounded() {
        let mut bytes = summary_to_bytes(&AnalysisSummary::default());
        // Patch the range count (8 bytes before the warning count).
        let n = bytes.len();
        bytes[n - 16..n - 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            summary_from_bytes(&bytes),
            Err(TraceError::LimitExceeded {
                what: "range count",
                ..
            })
        ));
    }

    #[test]
    fn summary_warning_count_bounded() {
        let mut bytes = summary_to_bytes(&AnalysisSummary::default());
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            summary_from_bytes(&bytes),
            Err(TraceError::LimitExceeded {
                what: "warning count",
                ..
            })
        ));
    }

    #[test]
    fn summary_bad_warning_tag_rejected() {
        let s = AnalysisSummary {
            warnings: vec![AnalysisWarning::UnlockedSharedRange {
                start: Addr(0),
                len: 8,
            }],
            ..Default::default()
        };
        let mut bytes = summary_to_bytes(&s);
        // The warning tag sits before the 16-byte range body that ends
        // the stream.
        let n = bytes.len();
        bytes[n - 17] = 9;
        assert!(matches!(
            summary_from_bytes(&bytes),
            Err(TraceError::BadClass { class: 9, .. })
        ));
    }
}
