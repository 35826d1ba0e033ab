//! The `dgrace serve` wire protocol.
//!
//! Every message is one length-framed [`dgrace_trace::Frame`] (`len u32
//! LE | kind u8 | payload`), so the transport reuses the hardened trace
//! decoder's framing: truncation, oversized lengths, and zero-length
//! frames all surface as typed [`TraceError`](dgrace_trace::TraceError)s
//! rather than panics or silent desync. Client-originated kinds sit
//! below `0x80`, server-originated kinds at `0x80` and above.
//!
//! A session is one conversation:
//!
//! ```text
//! client                         server
//!   HELLO{session, detector}  ->
//!                             <-  WELCOME{start_offset, credits, degraded}
//!   EVENTS{count, records}    ->                      (repeated)
//!                             <-  RACE{count, races}  (as they fire)
//!                             <-  CREDIT{count}       (per EVENTS frame)
//!   FINISH                    ->
//!                             <-  REPORT{json}
//! ```
//!
//! or ends early with `OVERLOADED` (admission shed) or `ERROR`
//! (handshake refusal / session quarantine). The `EVENTS` payload is the
//! [`dgrace_trace::encode_events`] batch format — a declared count
//! followed by raw DGRT event records — decoded prefix-preservingly so a
//! malformed batch still yields an exact `declared - decoded` loss
//! count.
//!
//! Credits are the backpressure contract: `WELCOME.credits` is the
//! event window, the client keeps `sent - credited <= window`, and the
//! server grants `CREDIT{n}` only after *processing* an `n`-event
//! frame. A flooding client therefore blocks in its own socket, not in
//! the server's memory.

use std::io::{Read, Write};

use dgrace_detectors::{RaceKind, RaceReport, Report};
use dgrace_trace::{read_frame, write_frame, Addr, Frame, TraceError};
use dgrace_vc::{Epoch, Tid};

/// Protocol version carried in `HELLO`; bumped on any wire change.
pub const PROTO_VERSION: u8 = 1;

/// Client → server: open a session (`Hello` payload).
pub const FRAME_HELLO: u8 = 0x01;
/// Client → server: an event batch ([`dgrace_trace::encode_events`]).
pub const FRAME_EVENTS: u8 = 0x02;
/// Client → server: end of stream; finalize and send the report.
pub const FRAME_FINISH: u8 = 0x03;

/// Server → client: session accepted (`Welcome` payload).
pub const FRAME_WELCOME: u8 = 0x81;
/// Server → client: `u32` event credits replenished.
pub const FRAME_CREDIT: u8 = 0x82;
/// Server → client: a batch of newly detected races.
pub const FRAME_RACE: u8 = 0x83;
/// Server → client: the final report (deterministic JSON).
pub const FRAME_REPORT: u8 = 0x84;
/// Server → client: admission shed — retry later or elsewhere.
pub const FRAME_OVERLOADED: u8 = 0x85;
/// Server → client: refusal or quarantine; payload is a UTF-8 reason.
pub const FRAME_ERROR: u8 = 0x86;

/// Longest allowed session name (also a checkpoint file stem).
pub const MAX_SESSION_NAME: usize = 64;
/// Longest allowed detector name.
pub const MAX_DETECTOR_NAME: usize = 32;

/// Bytes of one race record in a `RACE` payload.
const RACE_RECORD_BYTES: usize = 39;

/// The `HELLO` payload: who is connecting and what analysis they want.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// Session name: the durable identity (`[A-Za-z0-9._-]{1,64}`) used
    /// for duplicate detection and checkpoint files.
    pub session: String,
    /// Detector to run (`byte`, `word`, `dynamic`, ..., `djit`).
    pub detector: String,
}

impl Hello {
    /// Encodes the payload: `version u8 | slen u8 | session | dlen u8 |
    /// detector`.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(3 + self.session.len() + self.detector.len());
        v.push(PROTO_VERSION);
        v.push(self.session.len() as u8);
        v.extend_from_slice(self.session.as_bytes());
        v.push(self.detector.len() as u8);
        v.extend_from_slice(self.detector.as_bytes());
        v
    }

    /// Decodes and validates a `HELLO` payload. The session name is
    /// restricted to a filesystem-safe charset because it becomes a
    /// checkpoint file stem.
    pub fn decode(payload: &[u8]) -> Result<Hello, String> {
        let version = *payload.first().ok_or("empty HELLO payload")?;
        if version != PROTO_VERSION {
            return Err(format!(
                "protocol version {version} not supported (this server speaks {PROTO_VERSION})"
            ));
        }
        let (session, rest) = take_string(&payload[1..], MAX_SESSION_NAME, "session name")?;
        let (detector, rest) = take_string(rest, MAX_DETECTOR_NAME, "detector name")?;
        if !rest.is_empty() {
            return Err("trailing bytes after HELLO payload".to_string());
        }
        if session.is_empty() {
            return Err("empty session name".to_string());
        }
        if !session
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
        {
            return Err(format!(
                "session name `{session}` has characters outside [A-Za-z0-9._-]"
            ));
        }
        if detector.is_empty() {
            return Err("empty detector name".to_string());
        }
        Ok(Hello { session, detector })
    }
}

fn take_string<'a>(buf: &'a [u8], max: usize, what: &str) -> Result<(String, &'a [u8]), String> {
    let len = *buf.first().ok_or_else(|| format!("missing {what}"))? as usize;
    if len > max {
        return Err(format!("{what} is {len} bytes (max {max})"));
    }
    let bytes = buf
        .get(1..1 + len)
        .ok_or_else(|| format!("truncated {what}"))?;
    let s = std::str::from_utf8(bytes)
        .map_err(|_| format!("{what} is not UTF-8"))?
        .to_string();
    Ok((s, &buf[1 + len..]))
}

/// The `WELCOME` payload: the server's half of the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Welcome {
    /// Events the server already covers (a resumed checkpoint); the
    /// client streams only the suffix from this offset.
    pub start_offset: u64,
    /// Credit window: the client keeps `sent - credited` at or below
    /// this many events.
    pub credits: u32,
    /// True when admission pressure put this session on the sampling
    /// tier (recall may drop; every reported race is still real).
    pub degraded: bool,
}

impl Welcome {
    /// Encodes the 13-byte payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(13);
        v.extend_from_slice(&self.start_offset.to_le_bytes());
        v.extend_from_slice(&self.credits.to_le_bytes());
        v.push(self.degraded as u8);
        v
    }

    /// Decodes a `WELCOME` payload.
    pub fn decode(payload: &[u8]) -> Result<Welcome, String> {
        if payload.len() != 13 {
            return Err(format!(
                "WELCOME payload is {} bytes, want 13",
                payload.len()
            ));
        }
        Ok(Welcome {
            start_offset: u64::from_le_bytes(payload[..8].try_into().unwrap()),
            credits: u32::from_le_bytes(payload[8..12].try_into().unwrap()),
            degraded: payload[12] != 0,
        })
    }
}

/// Encodes a `CREDIT` payload granting `n` event credits.
pub fn encode_credit(n: u32) -> Vec<u8> {
    n.to_le_bytes().to_vec()
}

/// Decodes a `CREDIT` payload.
pub fn decode_credit(payload: &[u8]) -> Result<u32, String> {
    let bytes: [u8; 4] = payload
        .try_into()
        .map_err(|_| format!("CREDIT payload is {} bytes, want 4", payload.len()))?;
    Ok(u32::from_le_bytes(bytes))
}

/// Encodes a `RACE` payload: `count u32 | count × 39-byte records`.
pub fn encode_races(races: &[RaceReport]) -> Vec<u8> {
    let mut v = Vec::with_capacity(4 + races.len() * RACE_RECORD_BYTES);
    v.extend_from_slice(&(races.len() as u32).to_le_bytes());
    for r in races {
        v.extend_from_slice(&r.addr.0.to_le_bytes());
        v.push(match r.kind {
            RaceKind::WriteWrite => 0,
            RaceKind::ReadWrite => 1,
            RaceKind::WriteRead => 2,
        });
        for e in [r.current, r.previous] {
            v.extend_from_slice(&e.clock.to_le_bytes());
            v.extend_from_slice(&e.tid.0.to_le_bytes());
        }
        match r.event_index {
            Some(i) => {
                v.push(1);
                v.extend_from_slice(&i.to_le_bytes());
            }
            None => {
                v.push(0);
                v.extend_from_slice(&0u64.to_le_bytes());
            }
        }
        v.extend_from_slice(&r.share_count.to_le_bytes());
        v.push(r.tainted as u8);
    }
    v
}

/// Decodes a `RACE` payload back into reports.
pub fn decode_races(payload: &[u8]) -> Result<Vec<RaceReport>, String> {
    let count = u32::from_le_bytes(
        payload
            .get(..4)
            .ok_or("RACE payload shorter than its count word")?
            .try_into()
            .unwrap(),
    ) as usize;
    let body = &payload[4..];
    if body.len() != count * RACE_RECORD_BYTES {
        return Err(format!(
            "RACE payload declares {count} races but carries {} bytes",
            body.len()
        ));
    }
    let u32_at = |b: &[u8], at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let mut out = Vec::with_capacity(count);
    for rec in body.chunks_exact(RACE_RECORD_BYTES) {
        let kind = match rec[8] {
            0 => RaceKind::WriteWrite,
            1 => RaceKind::ReadWrite,
            2 => RaceKind::WriteRead,
            other => return Err(format!("unknown race kind {other}")),
        };
        out.push(RaceReport {
            addr: Addr(u64_at(rec, 0)),
            kind,
            current: Epoch::new(u32_at(rec, 9), Tid(u32_at(rec, 13))),
            previous: Epoch::new(u32_at(rec, 17), Tid(u32_at(rec, 21))),
            event_index: (rec[25] != 0).then(|| u64_at(rec, 26)),
            share_count: u32_at(rec, 34),
            tainted: rec[38] != 0,
        });
    }
    Ok(out)
}

/// Renders a finished session [`Report`] as deterministic JSON — no
/// wall-clock fields, races in detection order — so a resumed session's
/// report byte-diffs equal against the uninterrupted run's, and a served
/// session's against a solo in-process run over the same events.
pub fn report_json(session: &str, report: &Report, events_lost: u64, degraded: bool) -> String {
    render_report(session, report, events_lost, degraded, usize::MAX)
}

/// [`report_json`] as the payload of one `REPORT` frame: past
/// [`dgrace_trace::MAX_FRAME_LEN`] (about 10k races) the race list is cut
/// to fit and a trailing `races_truncated: N` field counts the races
/// left out — every one of them was already streamed in a `RACE` frame.
/// A report that fits is byte-identical to [`report_json`].
pub fn report_frame_json(
    session: &str,
    report: &Report,
    events_lost: u64,
    degraded: bool,
) -> String {
    // `write_frame` counts the kind byte against the frame length.
    let limit = dgrace_trace::MAX_FRAME_LEN as usize - 1;
    render_report(session, report, events_lost, degraded, limit)
}

fn render_report(
    session: &str,
    report: &Report,
    events_lost: u64,
    degraded: bool,
    limit: usize,
) -> String {
    let mut s = String::with_capacity(256 + report.races.len() * 96);
    s.push_str("{\"session\":\"");
    s.push_str(session);
    s.push_str("\",\"detector\":\"");
    s.push_str(&report.detector);
    s.push_str("\",\"events\":");
    s.push_str(&report.stats.events.to_string());
    s.push_str(",\"accesses\":");
    s.push_str(&report.stats.accesses.to_string());
    s.push_str(",\"events_lost\":");
    s.push_str(&events_lost.to_string());
    s.push_str(",\"degraded\":");
    s.push_str(if degraded { "true" } else { "false" });
    s.push_str(",\"budget_degraded\":");
    s.push_str(if report.budget_degraded {
        "true"
    } else {
        "false"
    });
    s.push_str(",\"checkpointing_degraded\":");
    s.push_str(if report.checkpointing_degraded {
        "true"
    } else {
        "false"
    });
    if let Some(g) = &report.governor {
        s.push_str(&format!(
            ",\"governor\":{{\"limit\":{},\"peak_rung\":{},\"final_rung\":{},\"decisions\":{},\
             \"peak_assessed_bytes\":{},\"engaged\":{},\"transitions\":{}}}",
            g.limit,
            g.peak_rung,
            g.final_rung,
            g.decisions,
            g.peak_assessed_bytes,
            g.engaged,
            g.transitions.len()
        ));
    }
    s.push_str(",\"shard_failures\":");
    s.push_str(&report.failures.len().to_string());
    s.push_str(",\"races\":[");
    // Room kept for the longest possible `],"races_truncated":N}` tail.
    let room = limit.saturating_sub("],\"races_truncated\":}".len() + 20);
    let mut kept = 0usize;
    for r in &report.races {
        let one = format!(
            "{{\"addr\":\"{:#x}\",\"kind\":\"{}\",\"current\":\"{}@{}\",\"previous\":\"{}@{}\",\
             \"share_count\":{},\"tainted\":{}}}",
            r.addr.0,
            match r.kind {
                RaceKind::WriteWrite => "write-write",
                RaceKind::ReadWrite => "read-write",
                RaceKind::WriteRead => "write-read",
            },
            r.current.clock,
            r.current.tid.0,
            r.previous.clock,
            r.previous.tid.0,
            r.share_count,
            r.tainted
        );
        if s.len() + one.len() + 1 > room {
            break;
        }
        if kept > 0 {
            s.push(',');
        }
        s.push_str(&one);
        kept += 1;
    }
    s.push(']');
    if kept < report.races.len() {
        s.push_str(&format!(
            ",\"races_truncated\":{}",
            report.races.len() - kept
        ));
    }
    s.push('}');
    s
}

/// Writes one protocol frame (flushless; callers flush per message
/// batch).
pub fn send<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> std::io::Result<()> {
    write_frame(w, kind, payload)
}

/// Reads one protocol frame, tracking the stream offset for error
/// reporting. `Ok(None)` is a clean end-of-stream at a frame boundary.
pub fn recv<R: Read>(r: &mut R, offset: &mut u64) -> Result<Option<Frame>, TraceError> {
    read_frame(r, offset, dgrace_trace::MAX_FRAME_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hello_roundtrip_and_validation() {
        let h = Hello {
            session: "client-7".to_string(),
            detector: "dynamic".to_string(),
        };
        assert_eq!(Hello::decode(&h.encode()).unwrap(), h);
        assert!(Hello::decode(&[]).is_err());
        assert!(
            Hello::decode(&[9, 1, b'a', 1, b'b']).is_err(),
            "bad version"
        );
        let bad = Hello {
            session: "no/slashes".to_string(),
            detector: "byte".to_string(),
        };
        assert!(Hello::decode(&bad.encode()).is_err());
        let empty = Hello {
            session: String::new(),
            detector: "byte".to_string(),
        };
        assert!(Hello::decode(&empty.encode()).is_err());
    }

    #[test]
    fn welcome_and_credit_roundtrip() {
        let w = Welcome {
            start_offset: 12345,
            credits: 4096,
            degraded: true,
        };
        assert_eq!(Welcome::decode(&w.encode()).unwrap(), w);
        assert!(Welcome::decode(&[0; 5]).is_err());
        assert_eq!(decode_credit(&encode_credit(512)).unwrap(), 512);
        assert!(decode_credit(&[1, 2]).is_err());
    }

    #[test]
    fn race_batch_roundtrip() {
        let races = vec![
            RaceReport {
                addr: Addr(0x1000),
                kind: RaceKind::WriteWrite,
                current: Epoch::new(3, Tid(1)),
                previous: Epoch::new(2, Tid(0)),
                event_index: Some(42),
                share_count: 4,
                tainted: true,
            },
            RaceReport {
                addr: Addr(0x2000),
                kind: RaceKind::ReadWrite,
                current: Epoch::new(9, Tid(2)),
                previous: Epoch::new(1, Tid(3)),
                event_index: None,
                share_count: 1,
                tainted: false,
            },
        ];
        assert_eq!(decode_races(&encode_races(&races)).unwrap(), races);
        assert!(decode_races(&[1, 0, 0, 0, 9]).is_err(), "short body");
    }
}
