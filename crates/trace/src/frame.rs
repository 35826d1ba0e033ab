//! Length-framed wire protocol for live event ingestion.
//!
//! The `dgrace serve` server and its clients exchange *frames* over a
//! byte stream (a Unix-domain socket in practice). A frame is:
//!
//! ```text
//! len:  u32 LE     total bytes following the length word (kind + payload)
//! kind: u8         message discriminator (meaning assigned by the peer layer)
//! payload: [u8]    len - 1 bytes, kind-specific
//! ```
//!
//! The framing layer is deliberately dumb: it carries opaque `kind` bytes
//! and byte payloads, bounds the length word so a hostile peer cannot make
//! the receiver reserve unbounded memory, and reports the same typed
//! [`TraceError`]s as the on-disk decoder — truncation mid-frame is
//! [`TraceError::Truncated`], an oversized length prefix is
//! [`TraceError::LimitExceeded`], and a zero-length frame (which could not
//! even carry a `kind`) is [`TraceError::Malformed`]. Clean EOF *between*
//! frames is not an error: [`read_frame`] returns `Ok(None)`.
//!
//! Event batches ride inside frames re-using the exact DGRT record codec
//! from [`crate::io`]: a `u32 LE` count followed by that many tagged event
//! records ([`encode_events`] / [`decode_events`]). [`decode_event_at`]
//! exposes single-record decoding so a receiver can account *exactly* how
//! many events of a batch were recovered before a corrupt byte — the
//! server's `events_lost` bookkeeping depends on this.

use std::io::{self, Read, Write};

use crate::io::{decode_event, write_event, DecodeLimits, TraceError};
use crate::Event;

/// Default upper bound on the frame length word (1 MiB). Large enough for
/// ~50k events per frame, small enough that a hostile length prefix cannot
/// reserve meaningful memory.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// One decoded frame: a discriminator byte plus its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminator; meaning is assigned by the protocol layer.
    pub kind: u8,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

/// Writes one frame (`len | kind | payload`) to `w`.
///
/// Returns `InvalidInput` if the payload would overflow the length bound
/// — the writer enforces the same contract the reader does, so a
/// well-behaved sender can never emit a frame its peer must reject.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u64 + 1;
    if len > MAX_FRAME_LEN as u64 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame payload of {} bytes exceeds MAX_FRAME_LEN",
                payload.len()
            ),
        ));
    }
    w.write_all(&(len as u32).to_le_bytes())?;
    w.write_all(&[kind])?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes, distinguishing EOF-before-anything
/// (`Ok(false)`) from EOF-mid-buffer ([`TraceError::Truncated`]).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8], offset: u64) -> Result<bool, TraceError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(TraceError::Truncated {
                    offset: offset + filled as u64,
                    expected: buf.len() - filled,
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TraceError::Io(e)),
        }
    }
    Ok(true)
}

/// Reads one frame from `r`.
///
/// `offset` is the absolute stream position of the next byte, used for
/// error reporting and advanced past the frame on success. `max_frame`
/// bounds the length word (use [`MAX_FRAME_LEN`] unless testing).
///
/// Returns `Ok(None)` on clean EOF at a frame boundary. EOF inside the
/// length word or body is [`TraceError::Truncated`]; a length word of
/// zero is [`TraceError::Malformed`]; a length word beyond `max_frame`
/// is [`TraceError::LimitExceeded`]. Never panics; allocates at most
/// `max_frame` bytes.
pub fn read_frame<R: Read>(
    r: &mut R,
    offset: &mut u64,
    max_frame: u32,
) -> Result<Option<Frame>, TraceError> {
    let mut lenb = [0u8; 4];
    if !read_exact_or_eof(r, &mut lenb, *offset)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(lenb);
    if len == 0 {
        return Err(TraceError::Malformed {
            offset: *offset,
            what: "empty frame (length word is zero)",
        });
    }
    if len > max_frame {
        return Err(TraceError::LimitExceeded {
            offset: *offset,
            what: "frame length",
            value: len as u64,
            limit: max_frame as u64,
        });
    }
    let body_off = *offset + 4;
    let mut body = vec![0u8; len as usize];
    if !read_exact_or_eof(r, &mut body, body_off)? {
        return Err(TraceError::Truncated {
            offset: body_off,
            expected: len as usize,
        });
    }
    *offset = body_off + len as u64;
    let payload = body.split_off(1);
    Ok(Some(Frame {
        kind: body[0],
        payload,
    }))
}

/// Encodes a batch of events as `count: u32 LE` followed by DGRT records.
///
/// The result is meant to become a frame payload; callers should keep
/// batches under [`MAX_FRAME_LEN`] (about 50k events in the worst case).
pub fn encode_events(events: &[Event]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + events.len() * 14);
    out.extend_from_slice(&(events.len() as u32).to_le_bytes());
    for ev in events {
        // Writing into a Vec cannot fail.
        write_event(ev, &mut out).expect("vec write is infallible");
    }
    out
}

/// Decodes one event record at `buf[pos..]`.
///
/// `offset` is the absolute stream position of `buf[pos]`, used only for
/// error reporting. On success returns the event and the number of bytes
/// it occupied. A window too short to complete the record is
/// [`TraceError::Truncated`]. Never panics.
pub fn decode_event_at(
    buf: &[u8],
    pos: usize,
    offset: u64,
    limits: &DecodeLimits,
) -> Result<(Event, usize), TraceError> {
    let window = &buf[pos.min(buf.len())..];
    decode_event(window, limits).map_err(|reject| reject.error(window, offset, limits))
}

/// Result of decoding an event-batch payload: the recovered events plus
/// exact-loss accounting for the failure case.
#[derive(Debug)]
pub struct EventBatchDecode {
    /// Events decoded, in order. On error this holds the prefix that
    /// decoded cleanly before the failure.
    pub events: Vec<Event>,
    /// Events the batch header declared.
    pub declared: u32,
    /// The decode failure, if any. `None` means `events.len() == declared`
    /// and the payload had no trailing garbage.
    pub error: Option<TraceError>,
}

impl EventBatchDecode {
    /// Declared events that were *not* recovered — the batch's
    /// contribution to `events_lost` when it is rejected.
    pub fn lost(&self) -> u64 {
        (self.declared as u64).saturating_sub(self.events.len() as u64)
    }
}

/// Decodes an event-batch payload produced by [`encode_events`].
///
/// `base_offset` is the absolute stream position of `payload[0]` for
/// error reporting. Decoding is *prefix-preserving*: on failure the
/// events that decoded before the corrupt byte are still returned, so a
/// receiver can account exactly which declared events were lost. Trailing
/// bytes after the declared count are [`TraceError::Malformed`]. Never
/// panics; allocation is proportional to bytes actually decoded, not the
/// declared count.
pub fn decode_events(payload: &[u8], base_offset: u64, limits: &DecodeLimits) -> EventBatchDecode {
    if payload.len() < 4 {
        return EventBatchDecode {
            events: Vec::new(),
            declared: 0,
            error: Some(TraceError::Truncated {
                offset: base_offset + payload.len() as u64,
                expected: 4 - payload.len(),
            }),
        };
    }
    let declared = u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]]);
    if declared as u64 > limits.max_events {
        return EventBatchDecode {
            events: Vec::new(),
            declared,
            error: Some(TraceError::LimitExceeded {
                offset: base_offset,
                what: "event batch count",
                value: declared as u64,
                limit: limits.max_events,
            }),
        };
    }
    let mut events = Vec::with_capacity((declared as usize).min(payload.len() / 9));
    let mut pos = 4usize;
    for _ in 0..declared {
        match decode_event_at(payload, pos, base_offset + pos as u64, limits) {
            Ok((ev, used)) => {
                events.push(ev);
                pos += used;
            }
            Err(e) => {
                return EventBatchDecode {
                    events,
                    declared,
                    error: Some(e),
                };
            }
        }
    }
    let error = if pos != payload.len() {
        Some(TraceError::Malformed {
            offset: base_offset + pos as u64,
            what: "trailing bytes after declared event batch",
        })
    } else {
        None
    };
    EventBatchDecode {
        events,
        declared,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessSize, Addr, Tid};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Fork {
                parent: Tid(0),
                child: Tid(1),
            },
            Event::Write {
                tid: Tid(1),
                addr: Addr(0x100),
                size: AccessSize::U64,
            },
            Event::Alloc {
                tid: Tid(0),
                addr: Addr(0x2000),
                size: 64,
            },
            Event::Join {
                parent: Tid(0),
                child: Tid(1),
            },
        ]
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x02, b"hello").unwrap();
        write_frame(&mut buf, 0x81, b"").unwrap();
        let mut cur = io::Cursor::new(buf);
        let mut off = 0u64;
        let f1 = read_frame(&mut cur, &mut off, MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert_eq!((f1.kind, f1.payload.as_slice()), (0x02, &b"hello"[..]));
        let f2 = read_frame(&mut cur, &mut off, MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert_eq!((f2.kind, f2.payload.len()), (0x81, 0));
        assert!(read_frame(&mut cur, &mut off, MAX_FRAME_LEN)
            .unwrap()
            .is_none());
    }

    #[test]
    fn truncated_frame_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x02, b"payload").unwrap();
        for cut in 1..buf.len() {
            let mut cur = io::Cursor::new(&buf[..cut]);
            let mut off = 0u64;
            match read_frame(&mut cur, &mut off, MAX_FRAME_LEN) {
                Err(TraceError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_limit_exceeded() {
        let mut buf = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 16]);
        let mut cur = io::Cursor::new(buf);
        let mut off = 0u64;
        match read_frame(&mut cur, &mut off, MAX_FRAME_LEN) {
            Err(TraceError::LimitExceeded { what, .. }) => assert_eq!(what, "frame length"),
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_frame_is_malformed() {
        let mut cur = io::Cursor::new(vec![0u8, 0, 0, 0]);
        let mut off = 0u64;
        assert!(matches!(
            read_frame(&mut cur, &mut off, MAX_FRAME_LEN),
            Err(TraceError::Malformed { .. })
        ));
    }

    #[test]
    fn event_batch_round_trip() {
        let events = sample_events();
        let payload = encode_events(&events);
        let dec = decode_events(&payload, 0, &DecodeLimits::default());
        assert!(dec.error.is_none());
        assert_eq!(dec.declared, events.len() as u32);
        assert_eq!(dec.events, events);
        assert_eq!(dec.lost(), 0);
    }

    #[test]
    fn corrupt_batch_keeps_clean_prefix_and_counts_loss() {
        let events = sample_events();
        let mut payload = encode_events(&events);
        // Corrupt the tag byte of the third record (fork=9B, write=14B).
        payload[4 + 9 + 14] = 0xEE;
        let dec = decode_events(&payload, 0, &DecodeLimits::default());
        assert_eq!(dec.events, events[..2]);
        assert_eq!(dec.declared, 4);
        assert_eq!(dec.lost(), 2);
        assert!(matches!(dec.error, Some(TraceError::BadTag { .. })));
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut payload = encode_events(&sample_events());
        payload.push(0xAB);
        let dec = decode_events(&payload, 0, &DecodeLimits::default());
        assert!(matches!(dec.error, Some(TraceError::Malformed { .. })));
        assert_eq!(dec.events.len(), 4);
    }

    #[test]
    fn writer_rejects_oversized_payload() {
        let huge = vec![0u8; MAX_FRAME_LEN as usize];
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, 0, &huge).is_err());
    }
}
