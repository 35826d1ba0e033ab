//! Persistent engine checkpoints: the `DGCP` container.
//!
//! A checkpoint is a [`CheckpointManifest`] — the engine's captured state
//! (per-shard detector snapshots, router, counters) plus enough trace
//! identity to validate a resume: the detector name, the trace length,
//! and the index of the next unprocessed event. Manifests are written
//! with [`dgrace_trace::write_file_atomic`], so a run killed mid-write
//! (even `kill -9`) leaves either the previous complete checkpoint or
//! none at all — never a torn file. A torn or truncated manifest (e.g. a
//! partial copy made outside the atomic writer) fails decoding with a
//! structured [`TraceError`] instead of resuming from garbage.
//!
//! Every manifest ends with a little-endian CRC32 (IEEE) over all
//! preceding bytes — atomic writes stop *torn* files, the checksum stops
//! *rotten* ones: a flipped bit anywhere in a stored checkpoint surfaces
//! as [`TraceError::ChecksumMismatch`] instead of resuming from silently
//! wrong state. A manifest of another format version is
//! [`TraceError::BadVersion`]: checkpoints are not migrated.
//!
//! Layout (all integers little-endian, strings/blobs length-prefixed):
//!
//! ```text
//! magic            : b"DGCP"
//! version          : u32   (currently 3)
//! detector         : str   (prototype name; must match at resume)
//! trace_len        : u64   (event count of the source trace)
//! trace_offset     : u64   (index of the first unprocessed event)
//! seq              : u64   (engine stamp counter)
//! emitted          : u64
//! pruned           : u64
//! router_next      : u64
//! router_ranges    : count, then (base u64, end u64, shard u64) each
//! shards           : count, then per shard:
//!   snapshot       : bool, then blob (a DGSS detector snapshot) if set
//!   failure        : bool, then shard u64, event_seq u64, payload str,
//!                    payload_type str, (bool, str) last_event if set
//!   dropped        : u64
//!   lost           : u64
//! crc32            : u32   (over everything above)
//! ```

use std::path::Path;

use dgrace_detectors::ShardFailure;
use dgrace_trace::{
    seal_crc, verify_crc, write_file_atomic, SnapshotLimits, SnapshotReader, SnapshotWriter,
    TraceError, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};

use crate::engine::{EngineState, ShardCapture};

/// File name used for the manifest inside a `--checkpoint-dir`.
pub const CHECKPOINT_FILE: &str = "checkpoint.dgcp";

/// A persisted engine checkpoint: captured state plus resume identity.
pub struct CheckpointManifest {
    /// Name of the detector prototype the snapshot belongs to; a resume
    /// under a different detector configuration is rejected.
    pub detector: String,
    /// Event count of the trace the checkpointed run was processing, as
    /// its source reported it before the first event: a `.dgrt` file's
    /// header count (under resync an upper bound on what decodes), and
    /// for a live session, which has no known end, the events covered.
    pub trace_len: u64,
    /// Index of the first trace event **not** covered by the checkpoint;
    /// a resumed run continues here.
    pub trace_offset: u64,
    pub(crate) state: EngineState,
}

impl CheckpointManifest {
    /// Number of detector shards the checkpoint captures; a resume must
    /// use the same shard count.
    pub fn shard_count(&self) -> usize {
        self.state.shards.len()
    }

    /// Encodes the manifest as a `DGCP` byte container.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        w.str(&self.detector);
        w.u64(self.trace_len);
        w.u64(self.trace_offset);
        w.u64(self.state.seq);
        w.u64(self.state.emitted);
        w.u64(self.state.pruned);
        w.u64(self.state.router_next_shard as u64);
        w.count(self.state.router_ranges.len());
        for &(base, end, shard) in &self.state.router_ranges {
            w.u64(base);
            w.u64(end);
            w.u64(shard as u64);
        }
        w.count(self.state.shards.len());
        for cap in &self.state.shards {
            match &cap.snapshot {
                Some(bytes) => {
                    w.bool(true);
                    w.blob(bytes);
                }
                None => w.bool(false),
            }
            match &cap.failure {
                Some(f) => {
                    w.bool(true);
                    w.u64(f.shard as u64);
                    w.u64(f.event_seq);
                    w.str(&f.payload);
                    w.str(&f.payload_type);
                    match &f.last_event {
                        Some(ev) => {
                            w.bool(true);
                            w.str(ev);
                        }
                        None => w.bool(false),
                    }
                }
                None => w.bool(false),
            }
            w.u64(cap.dropped);
            w.u64(cap.lost);
        }
        let mut bytes = w.finish();
        seal_crc(&mut bytes);
        bytes
    }

    /// Decodes a `DGCP` container, rejecting torn, truncated, or
    /// malformed input with a structured error.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        let mut r = SnapshotReader::new(
            verify_crc(bytes)?,
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            SnapshotLimits::default(),
        )?;
        let detector = r.str()?;
        let trace_len = r.u64()?;
        let trace_offset = r.u64()?;
        let seq = r.u64()?;
        let emitted = r.u64()?;
        let pruned = r.u64()?;
        let router_next_shard = r.u64()? as usize;
        let n_ranges = r.count("router ranges")?;
        let mut router_ranges = Vec::with_capacity(n_ranges);
        for _ in 0..n_ranges {
            let base = r.u64()?;
            let end = r.u64()?;
            let shard = r.u64()? as usize;
            router_ranges.push((base, end, shard));
        }
        let n_shards = r.count("shards")?;
        let mut shards = Vec::with_capacity(n_shards);
        for _ in 0..n_shards {
            let snapshot = if r.bool()? { Some(r.blob()?) } else { None };
            let failure = if r.bool()? {
                let shard = r.u64()? as usize;
                let event_seq = r.u64()?;
                let payload = r.str()?;
                let payload_type = r.str()?;
                let last_event = if r.bool()? { Some(r.str()?) } else { None };
                Some(ShardFailure {
                    shard,
                    event_seq,
                    payload,
                    payload_type,
                    last_event,
                })
            } else {
                None
            };
            let dropped = r.u64()?;
            let lost = r.u64()?;
            shards.push(ShardCapture {
                snapshot,
                failure,
                dropped,
                lost,
            });
        }
        r.expect_end()?;
        Ok(CheckpointManifest {
            detector,
            trace_len,
            trace_offset,
            state: EngineState {
                seq,
                emitted,
                pruned,
                router_next_shard,
                router_ranges,
                shards,
            },
        })
    }

    /// Writes the manifest to `path` atomically (temp file + fsync +
    /// rename), so a crash mid-write never leaves a torn manifest.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        write_file_atomic(path, &self.encode())
    }

    /// Loads a manifest from `path`. A missing file is `Ok(None)` — a
    /// fresh start, not an error; anything unreadable or undecodable is
    /// a diagnostic.
    pub fn load(path: &Path) -> Result<Option<Self>, String> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        };
        CheckpointManifest::decode(&bytes)
            .map(Some)
            .map_err(|e| format!("{}: corrupt checkpoint: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointManifest {
        CheckpointManifest {
            detector: "fasttrack".into(),
            trace_len: 100,
            trace_offset: 42,
            state: EngineState {
                seq: 17,
                emitted: 40,
                pruned: 2,
                router_next_shard: 1,
                router_ranges: vec![(0x1000, 0x1200, 0), (0x2000, 0x2040, 1)],
                shards: vec![
                    ShardCapture {
                        snapshot: Some(vec![1, 2, 3]),
                        failure: None,
                        dropped: 0,
                        lost: 0,
                    },
                    ShardCapture {
                        snapshot: None,
                        failure: Some(ShardFailure {
                            shard: 1,
                            event_seq: 9,
                            payload: "boom".into(),
                            payload_type: "str".into(),
                            last_event: Some("write 0x1100 (4 bytes) by t2".into()),
                        }),
                        dropped: 3,
                        lost: 5,
                    },
                ],
            },
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample();
        let bytes = m.encode();
        let back = CheckpointManifest::decode(&bytes).expect("decode");
        assert_eq!(back.detector, m.detector);
        assert_eq!(back.trace_len, m.trace_len);
        assert_eq!(back.trace_offset, m.trace_offset);
        assert_eq!(back.state.seq, m.state.seq);
        assert_eq!(back.state.router_ranges, m.state.router_ranges);
        assert_eq!(back.shard_count(), 2);
        assert_eq!(back.state.shards[0].snapshot, Some(vec![1, 2, 3]));
        assert_eq!(back.state.shards[1].failure, m.state.shards[1].failure);
        assert_eq!(back.state.shards[1].lost, 5);
        // Canonical: re-encoding reproduces the bytes.
        assert_eq!(back.encode(), bytes);
    }

    #[test]
    fn truncated_manifest_is_rejected_at_every_length() {
        let bytes = sample().encode();
        for len in 0..bytes.len() {
            assert!(
                CheckpointManifest::decode(&bytes[..len]).is_err(),
                "prefix of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn bit_rot_anywhere_is_rejected() {
        let bytes = sample().encode();
        // Flip one bit at a spread of offsets across the container —
        // header, payload, and the CRC trailer itself.
        for i in (0..bytes.len()).step_by(7).chain([bytes.len() - 1]) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x04;
            assert!(
                CheckpointManifest::decode(&bad).is_err(),
                "flipped bit at byte {i} must not decode"
            );
        }
    }

    #[test]
    fn another_format_version_is_refused() {
        // A sealed manifest whose header names an older or a newer
        // version: intact, and still not migrated.
        for version in [2u32, CHECKPOINT_VERSION + 1] {
            let bytes = sample().encode();
            let mut other = dgrace_trace::verify_crc(&bytes).unwrap().to_vec();
            other[4..8].copy_from_slice(&version.to_le_bytes());
            seal_crc(&mut other);
            assert!(matches!(
                CheckpointManifest::decode(&other),
                Err(TraceError::BadVersion(v)) if v == version
            ));
        }
    }

    #[test]
    fn missing_file_is_a_fresh_start() {
        let path = std::env::temp_dir().join("dgrace-no-such-checkpoint.dgcp");
        let _ = std::fs::remove_file(&path);
        assert!(CheckpointManifest::load(&path)
            .expect("missing is ok")
            .is_none());
    }

    #[test]
    fn save_load_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("dgrace-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let m = sample();
        m.save(&path).expect("save");
        let back = CheckpointManifest::load(&path)
            .expect("load")
            .expect("present");
        assert_eq!(back.encode(), m.encode());
        // A torn write (truncated file) must fail loudly, not resume
        // from garbage.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(CheckpointManifest::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
