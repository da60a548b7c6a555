//! Journal files: naming and segment headers.
//!
//! A journal directory holds one snapshot per *epoch* plus an ordered run of
//! append-only segment files for the current epoch:
//!
//! ```text
//! space/
//!   snapshot-0000000003.bin       epoch-3 snapshot (header + SEMEXSNP image)
//!   index-0000000003.idx          epoch-3 search-index sidecar (advisory)
//!   wal-0000000003-0000000000.log epoch-3 segments, in index order
//!   wal-0000000003-0000000001.log
//! ```
//!
//! Compaction folds the journal into a new snapshot under `epoch + 1` and
//! deletes the old epoch's files; recovery always starts from the highest
//! complete snapshot and ignores files from other epochs, so a crash at any
//! point of compaction leaves at most stale-but-ignored files behind.
//!
//! Every segment opens with a fixed header recording the epoch and the
//! global sequence number of its first event. Replay checks both: a
//! duplicated or out-of-order segment (backup tooling gone wrong) fails the
//! sequence check and replay stops at the boundary instead of re-applying
//! events.

/// Magic bytes opening every segment file.
pub const MAGIC: &[u8; 8] = b"SEMEXWAL";

/// Journal format version. Version 2 introduced commit-marker records:
/// every committed batch ends with a marker, and replay discards trailing
/// events that are not sealed by one.
pub const FORMAT_VERSION: u32 = 2;

/// Size of the fixed segment header.
pub const SEGMENT_HEADER_LEN: usize = 28;

/// The fixed header of a segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Compaction epoch this segment belongs to.
    pub epoch: u64,
    /// Global sequence number of the first event in this segment.
    pub start_seq: u64,
}

impl SegmentHeader {
    /// Serialize the header.
    pub fn encode(&self) -> [u8; SEGMENT_HEADER_LEN] {
        let mut out = [0u8; SEGMENT_HEADER_LEN];
        out[..8].copy_from_slice(MAGIC);
        out[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        out[12..20].copy_from_slice(&self.epoch.to_le_bytes());
        out[20..28].copy_from_slice(&self.start_seq.to_le_bytes());
        out
    }

    /// Parse a header from the front of a segment file. `None` when the
    /// bytes are not a well-formed header of a version we understand.
    pub fn decode(bytes: &[u8]) -> Option<SegmentHeader> {
        if bytes.len() < SEGMENT_HEADER_LEN || &bytes[..8] != MAGIC {
            return None;
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().ok()?);
        if version != FORMAT_VERSION {
            return None;
        }
        let epoch = u64::from_le_bytes(bytes[12..20].try_into().ok()?);
        let start_seq = u64::from_le_bytes(bytes[20..28].try_into().ok()?);
        Some(SegmentHeader { epoch, start_seq })
    }
}

/// File name of segment `index` in `epoch`.
pub fn segment_file_name(epoch: u64, index: u64) -> String {
    format!("wal-{epoch:010}-{index:010}.log")
}

/// Parse `(epoch, index)` out of a segment file name.
pub fn parse_segment_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    let (epoch, index) = rest.split_once('-')?;
    if epoch.len() != 10 || index.len() != 10 {
        return None;
    }
    Some((epoch.parse().ok()?, index.parse().ok()?))
}

/// On-disk encoding of an epoch snapshot.
///
/// New snapshots are always [`Binary`](SnapshotFormat::Binary). A legacy
/// [`Json`](SnapshotFormat::Json) snapshot is still read on recovery and
/// export, so an old space opens as before and turns binary at its next
/// compaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SnapshotFormat {
    /// Line-oriented JSON: a meta line, then the store's JSON snapshot.
    /// Read only.
    Json,
    /// Versioned little-endian binary image (`semex_store::binary`) behind
    /// a fixed journal header; opened lazily and CRC-verified per section.
    Binary,
}

impl SnapshotFormat {
    /// File name of the `epoch` snapshot in this format.
    pub(crate) fn file_name(self, epoch: u64) -> String {
        let extension = match self {
            SnapshotFormat::Json => "json",
            SnapshotFormat::Binary => "bin",
        };
        format!("snapshot-{epoch:010}.{extension}")
    }
}

/// File name of the `epoch` snapshot, as this build writes it.
pub fn snapshot_file_name(epoch: u64) -> String {
    SnapshotFormat::Binary.file_name(epoch)
}

/// Parse the epoch and format out of a snapshot file name.
pub(crate) fn parse_snapshot_name(name: &str) -> Option<(u64, SnapshotFormat)> {
    let rest = name.strip_prefix("snapshot-")?;
    let (epoch, format) = if let Some(e) = rest.strip_suffix(".json") {
        (e, SnapshotFormat::Json)
    } else if let Some(e) = rest.strip_suffix(".bin") {
        (e, SnapshotFormat::Binary)
    } else {
        return None;
    };
    if epoch.len() != 10 {
        return None;
    }
    Some((epoch.parse().ok()?, format))
}

/// File name of the `epoch` search-index sidecar (written next to the
/// snapshot so a durable open can skip the index rebuild).
pub fn index_file_name(epoch: u64) -> String {
    format!("index-{epoch:010}.idx")
}

/// Parse the epoch out of an index sidecar file name.
pub fn parse_index_name(name: &str) -> Option<u64> {
    let epoch = name.strip_prefix("index-")?.strip_suffix(".idx")?;
    if epoch.len() != 10 {
        return None;
    }
    epoch.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        assert_eq!(segment_file_name(3, 12), "wal-0000000003-0000000012.log");
        assert_eq!(
            parse_segment_name("wal-0000000003-0000000012.log"),
            Some((3, 12))
        );
        assert_eq!(parse_segment_name("wal-3-12.log"), None);
        assert_eq!(parse_segment_name("snapshot-0000000003.json"), None);
        assert_eq!(
            SnapshotFormat::Json.file_name(0),
            "snapshot-0000000000.json"
        );
        assert_eq!(snapshot_file_name(0), "snapshot-0000000000.bin");
        assert_eq!(
            parse_snapshot_name("snapshot-0000000007.json"),
            Some((7, SnapshotFormat::Json))
        );
        assert_eq!(
            parse_snapshot_name("snapshot-0000000007.bin"),
            Some((7, SnapshotFormat::Binary))
        );
        assert_eq!(parse_snapshot_name("snapshot-0000000007.json.tmp"), None);
        assert_eq!(parse_snapshot_name("snapshot-0000000007.bin.tmp"), None);
        assert_eq!(parse_snapshot_name("wal-0000000003-0000000012.log"), None);
        assert_eq!(index_file_name(7), "index-0000000007.idx");
        assert_eq!(parse_index_name("index-0000000007.idx"), Some(7));
        assert_eq!(parse_index_name("index-0000000007.idx.tmp"), None);
        assert_eq!(parse_index_name("snapshot-0000000007.json"), None);
    }

    #[test]
    fn header_round_trip() {
        let h = SegmentHeader {
            epoch: 5,
            start_seq: 12_345,
        };
        let bytes = h.encode();
        assert_eq!(SegmentHeader::decode(&bytes), Some(h));
        // Wrong magic, short buffer, wrong version all fail.
        let mut bad = bytes;
        bad[0] = b'X';
        assert_eq!(SegmentHeader::decode(&bad), None);
        assert_eq!(SegmentHeader::decode(&bytes[..10]), None);
        let mut wrong_version = h.encode();
        wrong_version[8] = 99;
        assert_eq!(SegmentHeader::decode(&wrong_version), None);
    }

    #[test]
    fn segment_names_sort_in_replay_order() {
        let mut names = [
            segment_file_name(1, 10),
            segment_file_name(1, 2),
            segment_file_name(1, 0),
        ];
        names.sort();
        let parsed: Vec<_> = names.iter().filter_map(|n| parse_segment_name(n)).collect();
        assert_eq!(parsed, vec![(1, 0), (1, 2), (1, 10)]);
    }
}
