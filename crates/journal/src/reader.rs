//! The one reader of a journal directory.
//!
//! Recovery, replication export, compaction, bootstrap-snapshot install
//! and a follower's bootstrap all read a journal directory the same way:
//!
//! - [`inventory`] lists it once and sorts every journal file by kind;
//! - [`pick_snapshot`] tries the snapshots newest first and returns the
//!   first that reads back under its own epoch — materialized, or only
//!   verified for a reader that may not need the store;
//! - [`scan`] walks that epoch's segments from the snapshot's sequence
//!   number and hands every sealed commit batch to its caller, stopping at
//!   the first damage.
//!
//! Nothing here writes. Recovery applies the batches and repairs the log
//! from what the scan reports; the exporter ships the batches as they are.

use crate::export::ExportedBatch;
use crate::io::{JournalIo, RealIo};
use crate::journal::{Damage, DamageKind, JournalError, SnapshotMeta};
use crate::record::{self, Decoded, COMMIT_MARKER};
use crate::segment::{
    parse_index_name, parse_segment_name, parse_snapshot_name, segment_file_name, SegmentHeader,
    SnapshotFormat, SEGMENT_HEADER_LEN,
};
use semex_store::StoreEvent;
use std::path::{Path, PathBuf};

/// What a journal file is, by its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// An epoch's snapshot: `(epoch, format)`.
    Snapshot(u64, SnapshotFormat),
    /// One of an epoch's segments: `(epoch, index)`.
    Segment(u64, u64),
    /// An epoch's search-index sidecar.
    Sidecar(u64),
    /// The temp file of an atomic write that never reached its rename.
    Temp,
}

impl FileKind {
    fn of(name: &str) -> Option<FileKind> {
        if let Some((epoch, format)) = parse_snapshot_name(name) {
            Some(FileKind::Snapshot(epoch, format))
        } else if let Some((epoch, index)) = parse_segment_name(name) {
            Some(FileKind::Segment(epoch, index))
        } else if let Some(epoch) = parse_index_name(name) {
            Some(FileKind::Sidecar(epoch))
        } else {
            name.ends_with(".tmp").then_some(FileKind::Temp)
        }
    }
}

/// One journal file of a directory.
pub(crate) struct JournalFileEntry {
    /// The file name.
    pub(crate) name: String,
    /// Its size in bytes.
    pub(crate) len: u64,
    /// What it is.
    pub(crate) kind: FileKind,
}

/// The journal files of a directory, from one listing.
pub(crate) struct Inventory {
    /// Every snapshot, segment, sidecar and temp file, in directory order.
    /// Other names (ack cursors, foreign files) are left out.
    pub(crate) files: Vec<JournalFileEntry>,
    /// The snapshots `(epoch, format)`, newest epoch first and, within an
    /// epoch, the binary image before a legacy JSON one (the format a
    /// migrating compaction writes last).
    pub(crate) snapshots: Vec<(u64, SnapshotFormat)>,
}

impl Inventory {
    /// The segment indexes of `epoch`, ascending: replay order.
    pub(crate) fn segments(&self, epoch: u64) -> Vec<u64> {
        let mut indexes: Vec<u64> = self
            .files
            .iter()
            .filter_map(|f| match f.kind {
                FileKind::Segment(e, index) if e == epoch => Some(index),
                _ => None,
            })
            .collect();
        indexes.sort_unstable();
        indexes
    }

    /// The first snapshot or segment file, if any: the directory holds a
    /// journal. Temp files and sidecars alone are not one — recovery
    /// initializes such a directory afresh.
    pub(crate) fn journal_file(&self) -> Option<&str> {
        self.files
            .iter()
            .find(|f| matches!(f.kind, FileKind::Snapshot(..) | FileKind::Segment(..)))
            .map(|f| f.name.as_str())
    }
}

/// List a journal directory once and sort its files by kind.
pub(crate) fn inventory(io: &dyn JournalIo, dir: &Path) -> Result<Inventory, JournalError> {
    let mut inv = Inventory {
        files: Vec::new(),
        snapshots: Vec::new(),
    };
    for (name, len) in io.list_dir(dir).map_err(|e| JournalError::io(dir, e))? {
        let Some(kind) = FileKind::of(&name) else {
            continue;
        };
        if let FileKind::Snapshot(epoch, format) = kind {
            inv.snapshots.push((epoch, format));
        }
        inv.files.push(JournalFileEntry { name, len, kind });
    }
    inv.snapshots.sort_by_key(|&(epoch, format)| {
        (std::cmp::Reverse(epoch), format != SnapshotFormat::Binary)
    });
    Ok(inv)
}

/// Whether `dir` already holds a journal: a snapshot or a segment file.
///
/// A directory holding only temp files — say, of a bootstrap killed while
/// writing its snapshot image — holds none; recovery would open it as a
/// fresh, empty journal.
pub fn has_journal(dir: &Path) -> bool {
    inventory(&RealIo, dir).is_ok_and(|inv| inv.journal_file().is_some())
}

/// The snapshot a reader of a journal directory starts from, holding the
/// `S` its snapshot read produced (the store, or a verified image).
pub(crate) struct Picked<S> {
    /// Its epoch.
    pub(crate) epoch: u64,
    /// Its on-disk format.
    pub(crate) format: SnapshotFormat,
    /// The sequence number it folds in: where its epoch's log starts.
    pub(crate) base_seq: u64,
    /// What `read` made of the file.
    pub(crate) store: S,
}

/// Snapshots a pick passed over: each one's path and the reason.
pub(crate) type Rejected = Vec<(PathBuf, String)>;

/// Try the inventory's snapshots in order and return the first one that
/// `read` reads back under its own epoch, plus each candidate passed over
/// before it, with the reason.
///
/// A damaged snapshot (torn section, bad CRC, bad header, a foreign epoch
/// inside) falls back to the next candidate. Any other error — a hard I/O
/// failure, which would hit every candidate alike — propagates.
pub(crate) fn pick_snapshot<S>(
    io: &dyn JournalIo,
    dir: &Path,
    inv: &Inventory,
    read: impl Fn(&dyn JournalIo, &Path, SnapshotFormat) -> Result<(SnapshotMeta, S), JournalError>,
) -> Result<(Option<Picked<S>>, Rejected), JournalError> {
    let mut rejected = Vec::new();
    for &(epoch, format) in &inv.snapshots {
        let path = dir.join(format.file_name(epoch));
        match read(io, &path, format) {
            Ok((meta, store)) if meta.epoch == epoch => {
                let picked = Picked {
                    epoch,
                    format,
                    base_seq: meta.seq,
                    store,
                };
                return Ok((Some(picked), rejected));
            }
            Ok((meta, _)) => {
                rejected.push((path, format!("records epoch {} inside", meta.epoch)));
            }
            Err(
                e @ (JournalError::Snapshot(_)
                | JournalError::Invalid { .. }
                | JournalError::Encode(_)),
            ) => rejected.push((path, format!("is damaged ({e})"))),
            Err(e) => return Err(e),
        }
    }
    Ok((None, rejected))
}

/// How a [`scan`] ended.
pub(crate) struct Scan<B> {
    /// Damage that ended the scan: a bad segment header, a sequence gap, a
    /// torn or corrupt record, an undecodable payload — or, at the end of
    /// the log, events no commit marker seals
    /// ([`DamageKind::Uncommitted`]). `None` when the log was read to its
    /// end or the caller stopped the scan.
    pub(crate) damage: Option<Damage>,
    /// What the caller stopped the scan with, if it did.
    pub(crate) stopped: Option<B>,
    /// Position just past the last batch the caller took, as `(index into
    /// the scanned segments, byte offset)`: where a repair truncates.
    /// `None` when no segment had a valid header.
    pub(crate) watermark: Option<(usize, u64)>,
    /// Sequence number just past the last batch the caller took.
    pub(crate) head: u64,
    /// Segments read to their end.
    pub(crate) segments_read: usize,
}

/// Walk `epoch`'s `segments` (indexes, ascending) from `base_seq`: check
/// each header for the epoch and for sequence continuity, decode its
/// records, and hand every sealed batch to `take` in log order, with the
/// segment holding its commit marker and the offset just past it. The
/// scan stops at the first damage, or when `take` returns an error.
pub(crate) fn scan<B>(
    io: &dyn JournalIo,
    dir: &Path,
    epoch: u64,
    base_seq: u64,
    segments: &[u64],
    mut take: impl FnMut(ExportedBatch, &Path, u64) -> Result<(), B>,
) -> Result<Scan<B>, JournalError> {
    let mut scan = Scan {
        damage: None,
        stopped: None,
        watermark: None,
        head: base_seq,
        segments_read: 0,
    };
    // Events decoded from the log, sealed or not: segment headers are
    // checked against this.
    let mut decoded_seq = base_seq;
    // Events decoded since the last commit marker.
    let mut pending: Vec<StoreEvent> = Vec::new();
    let damage = 'scan: {
        for (pos, &index) in segments.iter().enumerate() {
            let path = dir.join(segment_file_name(epoch, index));
            let bytes = io.read(&path).map_err(|e| JournalError::io(&path, e))?;
            let damage = |offset: usize, kind| Damage {
                segment: path.clone(),
                offset: offset as u64,
                kind,
            };
            match SegmentHeader::decode(&bytes) {
                None => break 'scan Some(damage(0, DamageKind::BadHeader)),
                Some(h) if h.epoch != epoch || h.start_seq != decoded_seq => {
                    break 'scan Some(damage(0, DamageKind::SequenceMismatch))
                }
                Some(_) => {}
            }
            if pending.is_empty() {
                // A commit boundary coincides with this segment's start.
                scan.watermark = Some((pos, SEGMENT_HEADER_LEN as u64));
            }
            let mut offset = SEGMENT_HEADER_LEN;
            loop {
                let (payload, consumed) = match record::decode(&bytes[offset..]) {
                    Decoded::End => break,
                    Decoded::Record { payload, consumed } => (payload, consumed),
                    Decoded::Torn => break 'scan Some(damage(offset, DamageKind::Torn)),
                    Decoded::Corrupt => break 'scan Some(damage(offset, DamageKind::Corrupt)),
                };
                if payload == COMMIT_MARKER {
                    offset += consumed;
                    let batch = ExportedBatch {
                        start_seq: decoded_seq - pending.len() as u64,
                        events: std::mem::take(&mut pending),
                    };
                    if let Err(stop) = take(batch, &path, offset as u64) {
                        scan.stopped = Some(stop);
                        break 'scan None;
                    }
                    scan.head = decoded_seq;
                    scan.watermark = Some((pos, offset as u64));
                } else if let Ok(event) = serde_json::from_slice::<StoreEvent>(payload) {
                    pending.push(event);
                    decoded_seq += 1;
                    offset += consumed;
                } else {
                    break 'scan Some(damage(offset, DamageKind::Corrupt));
                }
            }
            scan.segments_read += 1;
        }
        // A log ending in events no marker seals: the tail of a commit that
        // was never acknowledged.
        let (pos, offset) = scan.watermark.unwrap_or((0, SEGMENT_HEADER_LEN as u64));
        (!pending.is_empty()).then(|| Damage {
            segment: dir.join(segment_file_name(
                epoch,
                segments.get(pos).copied().unwrap_or(0),
            )),
            offset,
            kind: DamageKind::Uncommitted,
        })
    };
    scan.damage = damage;
    Ok(scan)
}
