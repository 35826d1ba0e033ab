//! Hardened primitives for versioned binary artifacts.
//!
//! Three artifacts are written with [`SnapshotWriter`] and read back with
//! [`SnapshotReader`]: a detector's full analysis state (shadow stores,
//! vector-clock planes, sync state) as a `DGSS` snapshot, the runtime's
//! `DGCP` checkpoint manifest that carries one snapshot per shard, and the
//! `DGAS` analysis summary ([`crate::io::summary_to_bytes`]). Each is one
//! 4-byte magic, one `u32` little-endian version, then fixed-width
//! little-endian fields; a version other than the current one is
//! [`TraceError::BadVersion`] — artifacts are regenerated, not migrated.
//! Errors are typed [`TraceError`]s with absolute offsets. Every length
//! read from untrusted bytes is validated against [`SnapshotLimits`] and
//! against the bytes left *before* any allocation, so a corrupt or
//! adversarial artifact fails with a bounded error instead of an
//! allocation bomb.
//!
//! Snapshot files are written through [`write_file_atomic`]: the bytes
//! land in a temporary sibling, are fsync'd, and are then renamed over
//! the destination, so a `kill -9` mid-write can never leave a torn
//! snapshot where a complete one is expected.

use std::fs;
use std::io::Write;
use std::path::Path;

use crate::io::TraceError;

/// Magic prefix for serialized detector state.
pub const STATE_MAGIC: [u8; 4] = *b"DGSS";
/// Current detector-state snapshot format version.
///
/// Version 3 is one header, the stack's name, then one tagged section
/// per layer (`dgrace_detectors::snap::Section`). Version 4 drops the
/// per-thread same-epoch bitmaps from the happens-before state, version 5
/// the fixed-granularity detectors' own from their section, version 6 the
/// memory governor's sampler and its per-rung counters from its section,
/// and version 7 the governor's section itself: the shadow budget a
/// snapshot was taken under travels in the detector's own section.
/// Older snapshots are refused, not migrated.
pub const STATE_VERSION: u32 = 7;
/// Magic prefix for run-level checkpoint manifests.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"DGCP";
/// Current checkpoint manifest format version: a manifest ends with a
/// CRC32 trailer ([`seal_crc`]) and carries `DGSS` snapshots of
/// [`STATE_VERSION`], which refuse to restore from any other version.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Sanity bounds applied while decoding untrusted snapshot bytes.
///
/// The same philosophy as [`crate::DecodeLimits`]: values inside a limit
/// are accepted as-is, values beyond it produce
/// [`TraceError::LimitExceeded`] with the offending offset.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotLimits {
    /// Maximum element count for any single collection (store entries,
    /// clock-arena slots, journal deltas, …).
    pub max_items: u64,
    /// Maximum length of an embedded string, in bytes.
    pub max_string: u64,
    /// Maximum length of an embedded opaque byte blob.
    pub max_blob: u64,
}

impl Default for SnapshotLimits {
    fn default() -> Self {
        SnapshotLimits {
            max_items: 1 << 28,
            max_string: 1 << 16,
            max_blob: 1 << 32,
        }
    }
}

/// Builds a versioned snapshot byte stream.
///
/// The writer is infallible; all validation happens on the read side.
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Starts a stream with the given magic and version header.
    pub fn new(magic: [u8; 4], version: u32) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&magic);
        buf.extend_from_slice(&version.to_le_bytes());
        SnapshotWriter { buf }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a boolean as a single 0/1 byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed opaque byte blob.
    pub fn blob(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Appends raw bytes with no length prefix (fixed-size payloads the
    /// reader knows the length of, e.g. a magic).
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a collection length as a `u64` count prefix.
    pub fn count(&mut self, n: usize) {
        self.u64(n as u64);
    }

    /// Finishes the stream and returns the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Decodes a versioned snapshot byte stream with limit enforcement.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    off: usize,
    limits: SnapshotLimits,
}

impl<'a> SnapshotReader<'a> {
    /// Opens a stream, validating the magic and requiring exactly
    /// `version` in the header.
    pub fn new(
        bytes: &'a [u8],
        magic: [u8; 4],
        version: u32,
        limits: SnapshotLimits,
    ) -> Result<Self, TraceError> {
        let mut r = SnapshotReader {
            buf: bytes,
            off: 0,
            limits,
        };
        let mut m = [0u8; 4];
        r.raw(&mut m)?;
        if m != magic {
            return Err(TraceError::BadMagic(m));
        }
        let v = r.u32()?;
        if v != version {
            return Err(TraceError::BadVersion(v));
        }
        Ok(r)
    }

    /// The absolute byte offset of the next read.
    pub fn offset(&self) -> u64 {
        self.off as u64
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.buf.len() - self.off < n {
            return Err(TraceError::Truncated {
                offset: self.buf.len() as u64,
                expected: n - (self.buf.len() - self.off),
            });
        }
        let s = &self.buf[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    /// Reads raw bytes into `out` with no length prefix.
    pub fn raw(&mut self, out: &mut [u8]) -> Result<(), TraceError> {
        let s = self.take(out.len())?;
        out.copy_from_slice(s);
        Ok(())
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, TraceError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, TraceError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Reads a 0/1 boolean byte; anything else is [`TraceError::Malformed`].
    pub fn bool(&mut self) -> Result<bool, TraceError> {
        let at = self.offset();
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(TraceError::Malformed {
                offset: at,
                what: "boolean byte",
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string, bounded by `max_string`.
    pub fn str(&mut self) -> Result<String, TraceError> {
        let at = self.offset();
        let len = self.u64()?;
        if len > self.limits.max_string {
            return Err(TraceError::LimitExceeded {
                offset: at,
                what: "string length",
                value: len,
                limit: self.limits.max_string,
            });
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| TraceError::Malformed {
            offset: at,
            what: "utf-8 string",
        })
    }

    /// Reads a length-prefixed byte blob, bounded by `max_blob`.
    pub fn blob(&mut self) -> Result<Vec<u8>, TraceError> {
        let at = self.offset();
        let len = self.u64()?;
        if len > self.limits.max_blob {
            return Err(TraceError::LimitExceeded {
                offset: at,
                what: "blob length",
                value: len,
                limit: self.limits.max_blob,
            });
        }
        Ok(self.take(len as usize)?.to_vec())
    }

    /// Reads a collection length, bounded by `max_items` and by the bytes
    /// left: every collection encodes each item in at least one byte, so
    /// a count past the end of the stream is [`TraceError::Truncated`]
    /// before anything is allocated for it.
    pub fn count(&mut self, what: &'static str) -> Result<usize, TraceError> {
        let at = self.offset();
        let n = self.u64()?;
        if n > self.limits.max_items {
            return Err(TraceError::LimitExceeded {
                offset: at,
                what,
                value: n,
                limit: self.limits.max_items,
            });
        }
        let left = self.buf.len() - self.off;
        if n > left as u64 {
            return Err(TraceError::Truncated {
                offset: self.buf.len() as u64,
                expected: n as usize - left,
            });
        }
        Ok(n as usize)
    }

    /// Asserts the stream is fully consumed; trailing bytes are
    /// [`TraceError::Malformed`].
    pub fn expect_end(&self) -> Result<(), TraceError> {
        if self.off != self.buf.len() {
            return Err(TraceError::Malformed {
                offset: self.off as u64,
                what: "trailing bytes after snapshot",
            });
        }
        Ok(())
    }
}

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial) lookup tables for
/// slicing-by-8, built at compile time — no dependency, no runtime init.
/// `CRC32_TABLES[0]` is the bytewise table; `CRC32_TABLES[k][b]` is the
/// CRC register contribution of byte `b` followed by `k` more bytes, so
/// eight table loads fold eight input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// One byte into the CRC register `c`.
#[inline(always)]
fn crc32_byte(c: u32, b: u8) -> u32 {
    CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8)
}

/// CRC32 (IEEE) of `bytes`. Matches zlib's `crc32(0, …)`. Eight bytes
/// per step (slicing-by-8), the tail bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        let at = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
        c = t[7][at(lo, 0)]
            ^ t[6][at(lo, 8)]
            ^ t[5][at(lo, 16)]
            ^ t[4][at(lo, 24)]
            ^ t[3][at(hi, 0)]
            ^ t[2][at(hi, 8)]
            ^ t[1][at(hi, 16)]
            ^ t[0][at(hi, 24)];
    }
    !words.remainder().iter().fold(c, |c, &b| crc32_byte(c, b))
}

/// Appends a little-endian CRC32 trailer over everything currently in
/// `bytes` (header included). The inverse of [`verify_crc`].
pub fn seal_crc(bytes: &mut Vec<u8>) {
    let c = crc32(bytes);
    bytes.extend_from_slice(&c.to_le_bytes());
}

/// Validates and strips a [`seal_crc`] trailer, returning the payload.
/// A missing trailer is [`TraceError::Truncated`]; a mismatch is
/// [`TraceError::ChecksumMismatch`] — any flipped bit anywhere in the
/// artifact (header, payload, or the trailer itself) is caught.
pub fn verify_crc(bytes: &[u8]) -> Result<&[u8], TraceError> {
    let Some(split) = bytes.len().checked_sub(4) else {
        return Err(TraceError::Truncated {
            offset: bytes.len() as u64,
            expected: 4 - bytes.len(),
        });
    };
    let (payload, trailer) = bytes.split_at(split);
    let expected = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let actual = crc32(payload);
    if expected != actual {
        return Err(TraceError::ChecksumMismatch { expected, actual });
    }
    Ok(payload)
}

/// Writes `bytes` to `path` atomically: write to a temporary sibling,
/// fsync, rename over the destination, then fsync the directory. A
/// reader never observes a partially written file — it sees either the
/// previous complete version or the new one.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Make the rename durable. Directory fsync is best-effort: it can
    // fail on exotic filesystems without compromising atomicity.
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_strings_and_blobs() {
        let mut w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.bool(true);
        w.bool(false);
        w.str("fasttrack-word");
        w.blob(&[1, 2, 3]);
        w.count(8);
        w.raw(&[9; 8]);
        let bytes = w.finish();

        let mut r = SnapshotReader::new(
            &bytes,
            STATE_MAGIC,
            STATE_VERSION,
            SnapshotLimits::default(),
        )
        .unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "fasttrack-word");
        assert_eq!(r.blob().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.count("items").unwrap(), 8);
        let mut raw = [0u8; 8];
        r.raw(&mut raw).unwrap();
        assert_eq!(raw, [9; 8]);
        r.expect_end().unwrap();
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        let bytes = w.finish();
        assert!(matches!(
            SnapshotReader::new(
                &bytes,
                CHECKPOINT_MAGIC,
                STATE_VERSION,
                SnapshotLimits::default()
            ),
            Err(TraceError::BadMagic(_))
        ));
        assert!(matches!(
            SnapshotReader::new(&bytes, STATE_MAGIC, 99, SnapshotLimits::default()),
            Err(TraceError::BadVersion(STATE_VERSION))
        ));
    }

    #[test]
    fn truncation_reports_offset_and_deficit() {
        let mut w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        w.u32(5);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 2);
        let mut r = SnapshotReader::new(
            &bytes,
            STATE_MAGIC,
            STATE_VERSION,
            SnapshotLimits::default(),
        )
        .unwrap();
        assert!(matches!(
            r.u32(),
            Err(TraceError::Truncated { expected: 2, .. })
        ));
    }

    #[test]
    fn a_count_past_the_bytes_left_is_truncation_before_any_allocation() {
        // Three items promised, two bytes to hold them: a caller sizing a
        // buffer by the count never sees it.
        let mut w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        w.count(3);
        w.raw(&[1, 2]);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(
            &bytes,
            STATE_MAGIC,
            STATE_VERSION,
            SnapshotLimits::default(),
        )
        .unwrap();
        assert!(matches!(
            r.count("items"),
            Err(TraceError::Truncated {
                offset: 18,
                expected: 1
            })
        ));
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_malformed() {
        let mut w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        w.u8(2);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(
            &bytes,
            STATE_MAGIC,
            STATE_VERSION,
            SnapshotLimits::default(),
        )
        .unwrap();
        assert!(matches!(r.bool(), Err(TraceError::Malformed { .. })));

        let mut w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        w.u64(2);
        w.raw(&[0xFF, 0xFE]);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(
            &bytes,
            STATE_MAGIC,
            STATE_VERSION,
            SnapshotLimits::default(),
        )
        .unwrap();
        assert!(matches!(r.str(), Err(TraceError::Malformed { .. })));
    }

    #[test]
    fn limits_bound_counts_strings_and_blobs() {
        let limits = SnapshotLimits {
            max_items: 4,
            max_string: 4,
            max_blob: 4,
        };
        let mut w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        w.count(5);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes, STATE_MAGIC, STATE_VERSION, limits).unwrap();
        assert!(matches!(
            r.count("entries"),
            Err(TraceError::LimitExceeded {
                what: "entries",
                value: 5,
                limit: 4,
                ..
            })
        ));

        let mut w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        w.str("hello");
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes, STATE_MAGIC, STATE_VERSION, limits).unwrap();
        assert!(matches!(r.str(), Err(TraceError::LimitExceeded { .. })));

        let mut w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        w.blob(&[0; 5]);
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes, STATE_MAGIC, STATE_VERSION, limits).unwrap();
        assert!(matches!(r.blob(), Err(TraceError::LimitExceeded { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = SnapshotWriter::new(STATE_MAGIC, STATE_VERSION);
        w.u8(1);
        let bytes = w.finish();
        let r = SnapshotReader::new(
            &bytes,
            STATE_MAGIC,
            STATE_VERSION,
            SnapshotLimits::default(),
        )
        .unwrap();
        assert!(matches!(r.expect_end(), Err(TraceError::Malformed { .. })));
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_crc() {
        let bytewise = |bytes: &[u8]| !bytes.iter().fold(!0u32, |c, &b| crc32_byte(c, b));
        let data: Vec<u8> = (0..1000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..9 {
            for end in (start..data.len()).step_by(37).chain([data.len()]) {
                let bytes = &data[start..end];
                assert_eq!(crc32(bytes), bytewise(bytes), "{start}..{end}");
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic zlib/PNG check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn seal_and_verify_round_trip() {
        let mut w = SnapshotWriter::new(CHECKPOINT_MAGIC, CHECKPOINT_VERSION);
        w.u64(7);
        let mut bytes = w.finish();
        seal_crc(&mut bytes);
        let payload = verify_crc(&bytes).unwrap();
        assert_eq!(payload, &bytes[..bytes.len() - 4]);
        // Any single flipped bit — header, payload, or trailer — is caught.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(
                matches!(verify_crc(&bad), Err(TraceError::ChecksumMismatch { .. })),
                "bit flip at byte {i} must be caught"
            );
        }
        // Too short to even hold a trailer.
        assert!(matches!(
            verify_crc(&bytes[..3]),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let dir = std::env::temp_dir().join(format!("dgrace-snap-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.dgcp");
        write_file_atomic(&path, b"first version").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first version");
        write_file_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!path.with_extension("dgcp.tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
