//! Record framing: length-prefixed, CRC-checksummed payloads.
//!
//! On disk a record is `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//! Decoding distinguishes a *torn* record (the file ends mid-record — the
//! normal shape of a crash during append) from a *corrupt* one (the bytes
//! are all there but the checksum or length field is wrong). Recovery
//! truncates at either; the distinction is reported for diagnostics.

use semex_store::binary::crc32;

/// Frame header size: 4-byte length + 4-byte CRC.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single record's payload. A length field above this is
/// treated as corruption rather than an instruction to wait for 4 GiB of
/// payload that will never come.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Payload of the record that seals a commit. Event payloads are JSON
/// objects (they start with `{`), so this can never collide with one.
pub const COMMIT_MARKER: &[u8] = b"!commit";

/// Outcome of decoding one record from the front of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A complete, checksum-valid record. `consumed` covers header+payload.
    Record {
        /// The payload bytes.
        payload: &'a [u8],
        /// Total bytes consumed from the buffer.
        consumed: usize,
    },
    /// The buffer is empty: a clean end of log.
    End,
    /// The buffer ends mid-record (torn write).
    Torn,
    /// The record is present but damaged (bad checksum or absurd length).
    Corrupt,
}

/// Append one framed record to `out`.
pub fn encode(payload: &[u8], out: &mut Vec<u8>) {
    debug_assert!(payload.len() <= MAX_PAYLOAD);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Decode the record at the front of `buf`.
pub fn decode(buf: &[u8]) -> Decoded<'_> {
    if buf.is_empty() {
        return Decoded::End;
    }
    if buf.len() < HEADER_LEN {
        return Decoded::Torn;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    let crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if len > MAX_PAYLOAD {
        return Decoded::Corrupt;
    }
    if buf.len() < HEADER_LEN + len {
        return Decoded::Torn;
    }
    let payload = &buf[HEADER_LEN..HEADER_LEN + len];
    if crc32(payload) != crc {
        return Decoded::Corrupt;
    }
    Decoded::Record {
        payload,
        consumed: HEADER_LEN + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_records() {
        let mut buf = Vec::new();
        encode(b"first", &mut buf);
        encode(b"", &mut buf);
        encode(b"third record", &mut buf);
        let mut rest = buf.as_slice();
        let mut seen = Vec::new();
        loop {
            match decode(rest) {
                Decoded::Record { payload, consumed } => {
                    seen.push(payload.to_vec());
                    rest = &rest[consumed..];
                }
                Decoded::End => break,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(
            seen,
            vec![b"first".to_vec(), b"".to_vec(), b"third record".to_vec()]
        );
    }

    #[test]
    fn truncated_tail_is_torn() {
        let mut buf = Vec::new();
        encode(b"payload bytes", &mut buf);
        for cut in 1..buf.len() {
            assert_eq!(decode(&buf[..cut]), Decoded::Torn, "cut at {cut}");
        }
        assert_eq!(decode(&[]), Decoded::End);
    }

    #[test]
    fn flipped_byte_is_corrupt() {
        let mut buf = Vec::new();
        encode(b"payload bytes", &mut buf);
        // Flip each payload byte in turn.
        for i in HEADER_LEN..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert_eq!(decode(&bad), Decoded::Corrupt, "flip at {i}");
        }
        // A flipped CRC byte is also corruption.
        let mut bad = buf.clone();
        bad[5] ^= 0x01;
        assert_eq!(decode(&bad), Decoded::Corrupt);
    }

    #[test]
    fn absurd_length_is_corrupt() {
        let mut buf = vec![0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0];
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode(&buf), Decoded::Corrupt);
    }
}
