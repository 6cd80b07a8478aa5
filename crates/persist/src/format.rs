//! Frame format shared by data files and the manifest log, and the error
//! type every persistence path reports through.
//!
//! ```text
//! data file:      [8-byte magic "KGSEGD01"] frame*
//! manifest log:   [8-byte magic "KGMANIF1"] frame*
//! frame:          [u32 LE payload length][u64 LE FNV-1a of payload][payload]
//! ```
//!
//! The framing is the `KGJOURN1` journal format generalized: a reader can
//! always tell a complete frame from the torn tail a crash leaves behind,
//! and a corrupt length prefix can never ask us to allocate garbage
//! ([`MAX_PAYLOAD`]).

use kg_ir::fnv1a64;
use std::fmt;

/// First bytes of every segment data file.
pub const DATA_MAGIC: &[u8; 8] = b"KGSEGD01";

/// First bytes of the manifest log.
pub const MANIFEST_MAGIC: &[u8; 8] = b"KGMANIF1";

/// Frame header size: u32 length + u64 checksum.
pub const FRAME_HEADER: usize = 4 + 8;

/// Upper bound on a single frame payload; a larger claimed length is treated
/// as corruption rather than an allocation request.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Persistence failure modes. Corruption variants carry enough attribution
/// (file, offset, reason) for an operator to know *what* was quarantined.
#[derive(Debug)]
pub enum PersistError {
    Io(std::io::Error),
    Serde(serde_json::Error),
    /// A file exists but does not start with its expected magic.
    BadHeader {
        file: String,
    },
    /// A referenced frame failed verification.
    CorruptFrame {
        file: String,
        offset: u64,
        reason: String,
    },
    /// The manifest log cannot be used at all (unreadable or bad header) —
    /// unlike a corrupt checkpoint there is nothing to fall back to.
    ManifestUnusable {
        reason: String,
    },
    /// A [`crate::FaultHook`] crash point fired (chaos harness only).
    InjectedCrash {
        op_index: u64,
        op: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persist I/O error: {e}"),
            PersistError::Serde(e) => write!(f, "persist encoding error: {e}"),
            PersistError::BadHeader { file } => write!(f, "{file}: bad magic header"),
            PersistError::CorruptFrame {
                file,
                offset,
                reason,
            } => write!(f, "{file}@{offset}: corrupt frame: {reason}"),
            PersistError::ManifestUnusable { reason } => {
                write!(f, "manifest unusable: {reason}")
            }
            PersistError::InjectedCrash { op_index, op } => {
                write!(f, "injected crash before I/O op #{op_index} ({op})")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<serde_json::Error> for PersistError {
    fn from(e: serde_json::Error) -> Self {
        PersistError::Serde(e)
    }
}

/// The FNV-1a checksum of a frame payload. Every frame write and every
/// frame read in this crate hashes its payload through here exactly once.
pub(crate) fn checksum(payload: &[u8]) -> u64 {
    let sum = fnv1a64(payload);
    #[cfg(test)]
    hash_tally::record(sum, payload.len());
    sum
}

/// Encode one frame (header + payload), appending to `out`, and return the
/// payload's checksum so callers that also record it (the manifest's
/// [`crate::BlobEntry`]) need not hash the payload a second time. The
/// checkpoint write loop clears and reuses one buffer across a cycle's
/// blobs, so the frame allocation is amortised to the largest blob of the
/// cycle.
pub fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) -> u64 {
    let sum = checksum(payload);
    frame_into(payload, sum, out);
    sum
}

/// Append the frame of a payload whose checksum `sum` is already known —
/// compaction relocates frames it has just verified without re-hashing.
pub(crate) fn frame_into(payload: &[u8], sum: u64, out: &mut Vec<u8>) {
    out.reserve(FRAME_HEADER + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encode one frame into a fresh buffer.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    encode_frame_into(payload, &mut frame);
    frame
}

/// Check a frame header against the bytes that follow it: `header` holds
/// the first bytes at the frame's offset and `available` counts every byte
/// from that offset to the end of the file. Returns the payload length and
/// the header's checksum, or why no complete frame starts there.
pub(crate) fn frame_header(header: &[u8], available: usize) -> Result<(usize, u64), String> {
    if available < FRAME_HEADER || header.len() < FRAME_HEADER {
        return Err(format!(
            "short frame header: {available} of {FRAME_HEADER} bytes"
        ));
    }
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(format!("length prefix {len} exceeds MAX_PAYLOAD"));
    }
    if available < FRAME_HEADER + len {
        return Err(format!(
            "short payload: {} of {len} bytes",
            available - FRAME_HEADER
        ));
    }
    let sum = u64::from_le_bytes([
        header[4], header[5], header[6], header[7], header[8], header[9], header[10], header[11],
    ]);
    Ok((len, sum))
}

/// Decode the frame starting at `offset`. Returns `(payload, next_offset)`
/// or the reason the bytes do not form a complete, intact frame.
pub fn decode_frame_at(bytes: &[u8], offset: usize) -> Result<(&[u8], usize), String> {
    let rest = bytes.get(offset..).unwrap_or_default();
    let (len, sum) = frame_header(rest, rest.len())?;
    let payload = &rest[FRAME_HEADER..FRAME_HEADER + len];
    if checksum(payload) != sum {
        return Err("checksum mismatch".to_owned());
    }
    Ok((payload, offset + FRAME_HEADER + len))
}

/// Test-only tally of the bytes [`checksum`] hashed, keyed by the checksum
/// it returned, so a test with payloads of its own can count how often
/// each one was hashed while other tests hash theirs concurrently.
#[cfg(test)]
pub(crate) mod hash_tally {
    use std::collections::HashMap;
    use std::sync::Mutex;

    static BYTES: Mutex<Option<HashMap<u64, u64>>> = Mutex::new(None);

    pub(crate) fn record(sum: u64, len: usize) {
        let mut tally = BYTES.lock().unwrap_or_else(|e| e.into_inner());
        *tally
            .get_or_insert_with(HashMap::new)
            .entry(sum)
            .or_default() += len as u64;
    }

    /// Bytes hashed so far whose checksum came out as `sum`.
    pub(crate) fn bytes(sum: u64) -> u64 {
        let tally = BYTES.lock().unwrap_or_else(|e| e.into_inner());
        tally
            .as_ref()
            .and_then(|t| t.get(&sum))
            .copied()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut bytes = DATA_MAGIC.to_vec();
        bytes.extend_from_slice(&encode_frame(b"hello"));
        bytes.extend_from_slice(&encode_frame(b""));
        let (p1, next) = decode_frame_at(&bytes, DATA_MAGIC.len()).unwrap();
        assert_eq!(p1, b"hello");
        let (p2, end) = decode_frame_at(&bytes, next).unwrap();
        assert_eq!(p2, b"");
        assert_eq!(end, bytes.len());
    }

    #[test]
    fn every_corruption_is_detected() {
        let mut bytes = encode_frame(b"payload-bytes");
        // Torn tail.
        assert!(decode_frame_at(&bytes[..bytes.len() - 1], 0).is_err());
        assert!(decode_frame_at(&bytes[..4], 0).is_err());
        // Bit flip in the payload.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(decode_frame_at(&bytes, 0).unwrap_err().contains("checksum"));
        bytes[last] ^= 0x01;
        // Garbage length prefix.
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_frame_at(&bytes, 0)
            .unwrap_err()
            .contains("MAX_PAYLOAD"));
        // Offset past the end.
        assert!(decode_frame_at(b"xy", 7).is_err());
    }
}
