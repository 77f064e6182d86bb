//! The transport envelope: `magic · version · reserved · length`, then
//! the payload bytes.
//!
//! Every frame on the wire is
//!
//! | field    | bytes | encoding                                  |
//! |----------|-------|-------------------------------------------|
//! | magic    | 4     | `b"LDSN"` (`u32` little-endian)           |
//! | version  | 2     | [`PROTOCOL_VERSION`], little-endian       |
//! | reserved | 2     | zero (room for flags without a re-version)|
//! | length   | 4     | payload length in bytes, little-endian    |
//! | payload  | *length* | one [`Wire`](crate::codec::Wire)-encoded message |
//!
//! The magic rejects non-protocol peers on the first four bytes; the
//! version gates incompatible codecs before any payload is parsed; the
//! length is validated against a configurable cap **before** the
//! payload is read, so a hostile length field costs at most one header
//! read, never an allocation.

use std::fmt;
use std::io::{self, Read, Write};

/// First four bytes of every frame (`b"LDSN"` read little-endian).
const MAGIC: u32 = u32::from_le_bytes(*b"LDSN");

/// Wire-format version this build speaks. Bump on any codec change.
/// Version 2 added the backend field to `EngineSpec` and the
/// backend/Glauber-stats fields to `RunReport`. Version 3 dropped
/// `RunReport`'s trailing halo-sharding telemetry, which went away with
/// the cluster-parallel runner that produced it. Version 4 dropped
/// `ServerStats`' `batches` and `batched_requests`, which went away
/// with the serving layer's request coalescer. Version 5 dropped the
/// `interval` flag of `Op::Stats`, which went away with the registry's
/// per-tenant interval snapshots.
pub const PROTOCOL_VERSION: u16 = 5;

/// Frame header length in bytes.
pub const HEADER_LEN: usize = 12;

/// Default cap on payload length (16 MiB) — far above any realistic
/// report, far below an allocation-of-death.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 16 << 20;

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The first four bytes were not the magic `LDSN` — not our protocol.
    BadMagic(u32),
    /// The peer speaks a different [`PROTOCOL_VERSION`].
    UnsupportedVersion(u16),
    /// The declared payload length exceeds the configured cap.
    Oversized {
        /// Declared payload length.
        len: u32,
        /// The configured cap it exceeded.
        max: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad magic {m:#010x} (want {MAGIC:#010x})"),
            FrameError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {PROTOCOL_VERSION})"
                )
            }
            FrameError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Encodes the 12-byte header for a payload of `payload_len` bytes.
pub fn encode_header(payload_len: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    h[4..6].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    // bytes 6..8 reserved, zero
    h[8..12].copy_from_slice(&payload_len.to_le_bytes());
    h
}

/// Validates a received header and returns the declared payload length.
pub fn parse_header(header: &[u8; HEADER_LEN], max_len: u32) -> Result<u32, FrameError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(version));
    }
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if len > max_len {
        return Err(FrameError::Oversized { len, max: max_len });
    }
    Ok(len)
}

/// Writes one frame (header + payload). Rejects oversize payloads
/// locally instead of shipping a frame the peer will refuse.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8], max_len: u32) -> Result<(), FrameError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| *len <= max_len)
        .ok_or(FrameError::Oversized {
            len: payload.len().min(u32::MAX as usize) as u32,
            max: max_len,
        })?;
    w.write_all(&encode_header(len))?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame and returns its payload. The length cap is enforced
/// after the 12-byte header, before any payload byte is read.
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let len = parse_header(&header, max_len)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello", DEFAULT_MAX_FRAME_LEN).unwrap();
        write_frame(&mut wire, b"", DEFAULT_MAX_FRAME_LEN).unwrap();
        let mut r = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, DEFAULT_MAX_FRAME_LEN).unwrap(), b"");
        // a clean EOF at a frame boundary is an io error, not a panic
        assert!(matches!(
            read_frame(&mut r, DEFAULT_MAX_FRAME_LEN),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn header_validation_is_ordered_and_typed() {
        let mut h = encode_header(4);
        h[0] ^= 0xFF;
        assert!(matches!(
            parse_header(&h, 1024),
            Err(FrameError::BadMagic(_))
        ));
        let mut h = encode_header(4);
        h[4] = 9;
        assert!(matches!(
            parse_header(&h, 1024),
            Err(FrameError::UnsupportedVersion(9))
        ));
        let h = encode_header(2048);
        assert!(matches!(
            parse_header(&h, 1024),
            Err(FrameError::Oversized {
                len: 2048,
                max: 1024
            })
        ));
        assert_eq!(parse_header(&encode_header(4), 1024).unwrap(), 4);
    }

    #[test]
    fn oversize_is_rejected_at_the_writer_too() {
        let mut wire = Vec::new();
        let payload = vec![0u8; 100];
        assert!(matches!(
            write_frame(&mut wire, &payload, 64),
            Err(FrameError::Oversized { len: 100, max: 64 })
        ));
        assert!(wire.is_empty(), "nothing shipped on local rejection");
    }
}
