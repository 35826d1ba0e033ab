//! A blocking client for the `dgrace serve` protocol.
//!
//! Drives one session end to end: handshake, credit-respecting event
//! streaming (the client never has more than the granted window
//! in flight), live race collection, and the final report. The soak
//! harness, the integration tests, and `dgrace feed` all speak through
//! this type, so the protocol has exactly one client-side
//! implementation to keep honest.

use std::io::Read;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

use dgrace_detectors::RaceReport;
use dgrace_trace::{encode_events, Event, Frame, TraceError};

use crate::proto::{
    self, Hello, Welcome, FRAME_CREDIT, FRAME_ERROR, FRAME_HELLO, FRAME_OVERLOADED, FRAME_RACE,
    FRAME_REPORT, FRAME_WELCOME,
};

/// Events per `EVENTS` frame. Small enough that credits replenish
/// smoothly; large enough that framing overhead stays negligible.
pub(crate) const CLIENT_BATCH: usize = 512;

/// Client-side failure, split by who is at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Transport-level trouble (connect, read, write).
    Io(String),
    /// The server shed this connection at admission (hard watermark).
    Overloaded,
    /// The server refused or quarantined the session; the payload is
    /// its stated reason.
    Refused(String),
    /// The server broke protocol (unexpected frame, bad payload).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(m) => write!(f, "i/o: {m}"),
            ClientError::Overloaded => write!(f, "server overloaded (connection shed)"),
            ClientError::Refused(m) => write!(f, "refused by server: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e.to_string())
    }
}

impl From<TraceError> for ClientError {
    fn from(e: TraceError) -> Self {
        ClientError::Io(e.to_string())
    }
}

/// A finished session: the deterministic report JSON plus every race
/// that was streamed live along the way.
#[derive(Debug, Clone)]
pub struct SessionEnd {
    /// The server's final `REPORT` payload (see
    /// [`proto::report_json`]).
    pub report_json: String,
    /// Races received as `RACE` frames, in arrival order.
    pub races: Vec<RaceReport>,
}

/// One live session against a `dgrace serve` socket.
pub struct Client {
    stream: UnixStream,
    offset: u64,
    welcome: Welcome,
    /// Events sent but not yet credited back.
    outstanding: u64,
    races: Vec<RaceReport>,
}

impl Client {
    /// Connects and performs the handshake. `session` is the durable
    /// identity (resume key); `detector` picks the analysis.
    pub fn connect(socket: &Path, session: &str, detector: &str) -> Result<Client, ClientError> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let hello = Hello {
            session: session.to_string(),
            detector: detector.to_string(),
        };
        Client::handshake(stream, &hello)
    }

    /// Says `HELLO` on `stream` and reads the server's answer.
    ///
    /// A server that sheds a connection writes `OVERLOADED` and closes it
    /// at once, possibly before the `HELLO` arrives. The send then fails
    /// with a broken pipe or a reset, yet the answer is already waiting,
    /// so one frame is still read; only when there is none does the
    /// send's error stand.
    fn handshake(stream: UnixStream, hello: &Hello) -> Result<Client, ClientError> {
        use std::io::ErrorKind::{BrokenPipe, ConnectionReset};
        let unsent = match proto::send(&mut &stream, FRAME_HELLO, &hello.encode()) {
            Ok(()) => None,
            Err(e) if matches!(e.kind(), BrokenPipe | ConnectionReset) => Some(e),
            Err(e) => return Err(e.into()),
        };
        let mut offset = 0u64;
        let frame = match (proto::recv(&mut &stream, &mut offset), unsent) {
            (Ok(Some(f)), _) => f,
            (_, Some(e)) => return Err(e.into()),
            (Ok(None), None) => {
                return Err(ClientError::Protocol(
                    "server closed during handshake".to_string(),
                ))
            }
            (Err(e), None) => return Err(e.into()),
        };
        let welcome = match frame.kind {
            FRAME_WELCOME => Welcome::decode(&frame.payload).map_err(ClientError::Protocol)?,
            FRAME_OVERLOADED => return Err(ClientError::Overloaded),
            FRAME_ERROR => {
                return Err(ClientError::Refused(
                    String::from_utf8_lossy(&frame.payload).into_owned(),
                ))
            }
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected WELCOME, got frame kind {other:#04x}"
                )))
            }
        };
        Ok(Client {
            stream,
            offset,
            welcome,
            outstanding: 0,
            races: Vec::new(),
        })
    }

    /// The handshake result: covered offset, credit window, degraded
    /// flag.
    pub fn welcome(&self) -> Welcome {
        self.welcome
    }

    /// Events the server already covers; stream only the suffix from
    /// here (non-zero after a resume).
    pub fn start_offset(&self) -> u64 {
        self.welcome.start_offset
    }

    /// Whether this session was admitted onto the sampling tier.
    pub fn degraded(&self) -> bool {
        self.welcome.degraded
    }

    /// Races streamed so far.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Streams events, respecting the credit window: when the window is
    /// full the client blocks *reading* (collecting races and credits)
    /// instead of stuffing the socket. Events below
    /// [`Client::start_offset`] must already be excluded by the caller.
    pub fn send_events(&mut self, events: &[Event]) -> Result<(), ClientError> {
        let window = self.welcome.credits as u64;
        for chunk in events.chunks(CLIENT_BATCH.min(window.max(1) as usize)) {
            while self.outstanding + chunk.len() as u64 > window {
                self.pump()?;
            }
            proto::send(
                &mut &self.stream,
                proto::FRAME_EVENTS,
                &encode_events(chunk),
            )?;
            self.outstanding += chunk.len() as u64;
        }
        Ok(())
    }

    /// Blocks until every sent event has been credited back — i.e. the
    /// server has *processed* everything sent so far. The benchmark
    /// ledger's `serve` workload measures batch round-trip latency across
    /// this, and tests use it as a deterministic synchronization point
    /// before killing things.
    pub fn await_credits(&mut self) -> Result<(), ClientError> {
        while self.outstanding > 0 {
            self.pump()?;
        }
        Ok(())
    }

    /// Sends a raw frame verbatim — the fault-injection tests use this
    /// to speak malformed protocol on purpose.
    pub fn send_raw(&mut self, kind: u8, payload: &[u8]) -> Result<(), ClientError> {
        proto::send(&mut &self.stream, kind, payload)?;
        Ok(())
    }

    /// Sends raw *bytes* (not even a whole frame) — for slowloris and
    /// truncation tests.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        use std::io::Write;
        (&self.stream).write_all(bytes)?;
        Ok(())
    }

    /// Reads one server frame (`None` on clean close) — for tests that
    /// expect an `ERROR` or inspect the stream directly.
    pub fn recv_frame(&mut self) -> Result<Option<Frame>, ClientError> {
        Ok(proto::recv(&mut &self.stream, &mut self.offset)?)
    }

    /// Blocks on the next server frame and folds it into the session:
    /// credits widen the window, races accumulate.
    fn pump(&mut self) -> Result<(), ClientError> {
        let frame = match proto::recv(&mut &self.stream, &mut self.offset)? {
            Some(f) => f,
            None => {
                return Err(ClientError::Protocol(
                    "server closed mid-session".to_string(),
                ))
            }
        };
        self.absorb(frame)?.map_or(Ok(()), |json| {
            Err(ClientError::Protocol(format!(
                "unsolicited REPORT before FINISH: {json}"
            )))
        })
    }

    /// Folds one server frame into the session; returns a report
    /// payload if this frame was `REPORT`.
    fn absorb(&mut self, frame: Frame) -> Result<Option<String>, ClientError> {
        match frame.kind {
            FRAME_CREDIT => {
                let n = proto::decode_credit(&frame.payload).map_err(ClientError::Protocol)?;
                self.outstanding = self.outstanding.saturating_sub(n as u64);
                Ok(None)
            }
            FRAME_RACE => {
                let races = proto::decode_races(&frame.payload).map_err(ClientError::Protocol)?;
                self.races.extend(races);
                Ok(None)
            }
            FRAME_REPORT => {
                Ok(Some(String::from_utf8(frame.payload).map_err(|_| {
                    ClientError::Protocol("REPORT is not UTF-8".to_string())
                })?))
            }
            FRAME_ERROR => Err(ClientError::Refused(
                String::from_utf8_lossy(&frame.payload).into_owned(),
            )),
            FRAME_OVERLOADED => Err(ClientError::Overloaded),
            other => Err(ClientError::Protocol(format!(
                "unexpected frame kind {other:#04x}"
            ))),
        }
    }

    /// Ends the stream: sends `FINISH`, drains remaining races and
    /// credits, and returns the final report.
    pub fn finish(mut self) -> Result<SessionEnd, ClientError> {
        proto::send(&mut &self.stream, proto::FRAME_FINISH, &[])?;
        loop {
            let frame = match proto::recv(&mut &self.stream, &mut self.offset)? {
                Some(f) => f,
                None => {
                    return Err(ClientError::Protocol(
                        "server closed before REPORT".to_string(),
                    ))
                }
            };
            if let Some(report_json) = self.absorb(frame)? {
                return Ok(SessionEnd {
                    report_json,
                    races: self.races,
                });
            }
        }
    }

    /// Abandons the session without `FINISH` — the disconnect-mid-stream
    /// tests use this; a well-behaved client calls
    /// [`Client::finish`].
    pub fn abandon(self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    /// Reads and discards server frames until the peer closes — lets a
    /// test observe the quarantine `ERROR` text.
    pub fn drain_to_close(&mut self) -> Result<Vec<Frame>, ClientError> {
        let mut frames = Vec::new();
        loop {
            match proto::recv(&mut &self.stream, &mut self.offset) {
                Ok(Some(f)) => frames.push(f),
                Ok(None) => return Ok(frames),
                Err(e) => return Err(e.into()),
            }
        }
    }
}

// `Read` is implemented on `&UnixStream`; this import keeps the
// `proto::recv(&mut &self.stream, ..)` calls honest about that.
const _: fn() = || {
    fn assert_read<R: Read>() {}
    assert_read::<&UnixStream>();
};

#[cfg(test)]
mod tests {
    use super::*;

    /// A shed that lands before the `HELLO` is written: the peer has
    /// already answered `OVERLOADED` and closed, so the send breaks, and
    /// the answer must still be what the caller sees.
    #[test]
    fn a_shed_before_hello_is_still_overloaded() {
        let (ours, server) = UnixStream::pair().expect("socket pair");
        proto::send(&mut &server, FRAME_OVERLOADED, &[]).expect("shed");
        drop(server);
        let hello = Hello {
            session: "late".to_string(),
            detector: "byte".to_string(),
        };
        assert_eq!(
            Client::handshake(ours, &hello).err(),
            Some(ClientError::Overloaded)
        );
    }
}
