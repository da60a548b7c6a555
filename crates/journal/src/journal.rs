//! The journal proper: appending, recovery, compaction.
//!
//! All file access goes through the [`JournalIo`] trait (see
//! [`crate::io`]), so the exact same code path runs against the real
//! filesystem and against the deterministic fault injector the
//! failure-point sweep uses.
//!
//! ## Fault model
//!
//! Commits are atomic under replay: every [`Journal::append_commit`] batch
//! ends with a commit-marker record, and recovery discards any trailing
//! events that are not sealed by a marker. An I/O failure mid-append rolls
//! the journal back to its pre-append state (in memory and, best effort, on
//! disk), so a failed commit leaves nothing half-visible. Transient
//! failures (EINTR-style interrupts, short writes) are retried with bounded
//! exponential backoff; permanent ones surface to the caller, and when even
//! the rollback fails the journal marks itself *wedged* and refuses further
//! appends until [`Journal::reopen`] re-establishes a clean tail.

use crate::io::{JournalFile, JournalIo, RealIo};
use crate::reader::{inventory, pick_snapshot, scan, FileKind, Picked};
use crate::record::{self, COMMIT_MARKER};
use crate::segment::{
    index_file_name, segment_file_name, snapshot_file_name, SegmentHeader, SnapshotFormat,
    FORMAT_VERSION, SEGMENT_HEADER_LEN,
};
use semex_store::binary::crc32;
use semex_store::{SnapshotError, SnapshotReader, Store, StoreEvent};
use serde::Deserialize;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Errors raised by journal operations.
#[derive(Debug)]
pub enum JournalError {
    /// File I/O failure, with the path involved.
    Io {
        /// The file or directory being accessed.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The snapshot inside the journal directory failed to load or save.
    Snapshot(SnapshotError),
    /// A store event failed to serialize (a bug, not a disk condition).
    Encode(serde_json::Error),
    /// The directory's files are not a usable journal (e.g. segments
    /// without any snapshot, or adopting into a non-empty directory).
    Invalid {
        /// The journal directory.
        dir: PathBuf,
        /// What is wrong with it.
        reason: String,
    },
    /// A previous permanent failure could not be rolled back; the journal
    /// refuses writes until [`Journal::reopen`] re-establishes a clean
    /// tail. Reads of the in-memory store are unaffected.
    Wedged {
        /// The journal directory.
        dir: PathBuf,
    },
}

/// Whether an error is worth retrying.
///
/// Transient errors (an interrupted syscall, a short write) typically
/// succeed when re-issued; permanent ones (a full disk, a vanished
/// directory, a wedged journal) will keep failing until an operator
/// intervenes — the caller should stop writing and degrade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Retrying the operation may succeed (EINTR, short write, timeout).
    Transient,
    /// Retrying will not help (ENOSPC, permissions, missing files, bugs).
    Permanent,
}

impl JournalError {
    pub(crate) fn io(path: impl Into<PathBuf>, error: std::io::Error) -> Self {
        JournalError::Io {
            path: path.into(),
            error,
        }
    }

    /// Classify this error as transient (retryable) or permanent.
    pub fn class(&self) -> ErrorClass {
        match self {
            JournalError::Io { error, .. } => match error.kind() {
                std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WriteZero
                | std::io::ErrorKind::TimedOut => ErrorClass::Transient,
                _ => ErrorClass::Permanent,
            },
            _ => ErrorClass::Permanent,
        }
    }

    /// True when [`class`](JournalError::class) is
    /// [`ErrorClass::Transient`].
    pub fn is_transient(&self) -> bool {
        self.class() == ErrorClass::Transient
    }
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, error } => {
                write!(f, "journal I/O error on {}: {error}", path.display())
            }
            JournalError::Snapshot(e) => write!(f, "journal snapshot error: {e}"),
            JournalError::Encode(e) => write!(f, "journal event encoding error: {e}"),
            JournalError::Invalid { dir, reason } => {
                write!(f, "invalid journal directory {}: {reason}", dir.display())
            }
            JournalError::Wedged { dir } => write!(
                f,
                "journal {} is wedged after an unrecoverable I/O failure; reopen to resume",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { error, .. } => Some(error),
            JournalError::Snapshot(e) => Some(e),
            JournalError::Encode(e) => Some(e),
            JournalError::Invalid { .. } | JournalError::Wedged { .. } => None,
        }
    }
}

impl From<SnapshotError> for JournalError {
    fn from(e: SnapshotError) -> Self {
        JournalError::Snapshot(e)
    }
}

impl From<serde_json::Error> for JournalError {
    fn from(e: serde_json::Error) -> Self {
        JournalError::Encode(e)
    }
}

/// Journal tunables.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Rotate to a new segment once the current one reaches this many bytes.
    pub segment_max_bytes: u64,
    /// `fsync` segment data on every commit (and snapshots always). Disable
    /// only for throwaway stores and benchmarks.
    pub fsync: bool,
    /// How many times to re-issue an append/sync/compact that failed with a
    /// transient error before giving up.
    pub max_retries: u32,
    /// Base delay of the exponential backoff between retries (doubled per
    /// attempt). Zero disables sleeping, which tests use.
    pub retry_backoff: Duration,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            segment_max_bytes: 8 * 1024 * 1024,
            fsync: true,
            max_retries: 3,
            retry_backoff: Duration::from_millis(1),
        }
    }
}

/// Why replay stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DamageKind {
    /// The segment ends mid-record: the classic torn write of a crash.
    Torn,
    /// A record's checksum or length field is wrong, or its payload does
    /// not decode to an event.
    Corrupt,
    /// The segment file has no valid header.
    BadHeader,
    /// The segment's start sequence does not continue the log (duplicated,
    /// reordered or missing segment).
    SequenceMismatch,
    /// A decoded event did not apply cleanly to the recovering store:
    /// logical corruption, or a replicated batch a follower journaled but
    /// could not apply. The damaged commit is dropped whole — from the log
    /// and from the recovered store alike.
    Apply,
    /// The log ends with events that were never sealed by a commit marker:
    /// the writer crashed between appending and acknowledging. The tail is
    /// discarded — exactly the no-partial-commit contract.
    Uncommitted,
}

/// Where and why replay stopped; everything before this point was recovered.
#[derive(Debug, Clone)]
pub struct Damage {
    /// The segment file in which damage was found.
    pub segment: PathBuf,
    /// Byte offset of the first damaged record within that segment.
    pub offset: u64,
    /// The kind of damage.
    pub kind: DamageKind,
}

/// What recovery did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The epoch whose snapshot seeded the store.
    pub epoch: u64,
    /// Global sequence number at the snapshot.
    pub base_seq: u64,
    /// Events replayed from the journal on top of the snapshot.
    pub events_applied: u64,
    /// Segment files that contributed replayed events.
    pub segments_replayed: usize,
    /// Damage that stopped replay, if any. The journal is physically
    /// repaired (damaged tail truncated, unreachable segments removed), so
    /// a subsequent recovery is clean.
    pub damage: Option<Damage>,
    /// True when the directory was empty and a fresh journal was initialized.
    pub initialized: bool,
    /// Repairs or cleanups that could not be carried out (failed
    /// truncations, undeletable stale files). The recovered *state* is
    /// unaffected, but the next recovery may re-report the same damage.
    pub warnings: Vec<String>,
}

/// What compaction did.
#[derive(Debug, Clone)]
pub struct CompactionReport {
    /// The new epoch.
    pub epoch: u64,
    /// Journaled events folded into the new snapshot (since the last one).
    pub folded_events: u64,
    /// Old files removed.
    pub removed_files: usize,
    /// Total size of the removed files in bytes.
    pub removed_bytes: u64,
}

/// Journal bookkeeping for a snapshot's store image: the fields of the
/// binary header, or the first line of a legacy JSON snapshot.
#[derive(Debug, Deserialize)]
pub(crate) struct SnapshotMeta {
    /// Journal format version.
    journal_version: u32,
    /// Compaction epoch of this snapshot.
    pub(crate) epoch: u64,
    /// Global event sequence number the snapshot folds in.
    pub(crate) seq: u64,
}

/// An open, append-position segment file.
#[derive(Debug)]
struct OpenSegment {
    file: Box<dyn JournalFile>,
    path: PathBuf,
    written: u64,
}

/// The pre-append state [`Journal::rollback`] restores after a failed
/// attempt.
struct Checkpoint {
    next_seq: u64,
    next_segment_index: u64,
    /// Path and confirmed length of the segment that was open at the start
    /// of the attempt, if any.
    segment: Option<(PathBuf, u64)>,
}

/// An append-only, checksummed write-ahead log of [`StoreEvent`]s.
///
/// The journal owns the files inside one directory (see the module docs of
/// [`crate::segment`] for the layout). It tracks the current epoch and the
/// global event sequence number; [`Journal::commit`] appends the events a
/// recording store logged past that number, one framed record per event
/// plus a commit marker, and fsyncs.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    config: JournalConfig,
    io: Arc<dyn JournalIo>,
    epoch: u64,
    /// Sequence number the current epoch's snapshot was taken at.
    base_seq: u64,
    next_seq: u64,
    next_segment_index: u64,
    current: Option<OpenSegment>,
    wedged: bool,
    retries: u64,
}

impl Journal {
    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active configuration.
    pub fn config(&self) -> &JournalConfig {
        &self.config
    }

    /// The current compaction epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Global sequence number the next appended event will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Transient-failure retries performed over this journal's lifetime
    /// (across appends, syncs and compactions).
    pub fn retry_count(&self) -> u64 {
        self.retries
    }

    /// True after a permanent failure whose rollback also failed: the
    /// on-disk tail is in an unknown state and every mutating call returns
    /// [`JournalError::Wedged`] until [`Journal::reopen`] repairs it.
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// Append a batch of events as one atomic commit and make it durable
    /// (records, then a commit marker, then one fsync when the
    /// configuration asks for it). Returns the number appended.
    ///
    /// On a transient failure the append is rolled back and retried up to
    /// [`JournalConfig::max_retries`] times with exponential backoff. On a
    /// permanent failure the journal is rolled back to its pre-call state
    /// and the error is returned — nothing of the failed commit stays
    /// visible to recovery. If even the rollback fails, the journal wedges.
    pub fn append_commit(&mut self, events: &[StoreEvent]) -> Result<usize, JournalError> {
        if events.is_empty() {
            return Ok(0);
        }
        if self.wedged {
            return Err(JournalError::Wedged {
                dir: self.dir.clone(),
            });
        }
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(events.len());
        for event in events {
            payloads.push(serde_json::to_vec(event)?);
        }
        let mut attempt = 0u32;
        loop {
            let checkpoint = self.checkpoint();
            match self.try_append(&payloads) {
                Ok(()) => return Ok(events.len()),
                Err(e) => {
                    if !self.rollback(&checkpoint) {
                        self.wedged = true;
                        return Err(e);
                    }
                    if e.is_transient() && attempt < self.config.max_retries {
                        attempt += 1;
                        self.retries += 1;
                        self.backoff(attempt);
                        continue;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Append-commit the events a recording store logged past the
    /// journal's head, then release them from the store's log. The store
    /// must number its events with the journal's sequence (a recovered
    /// store does). On failure the events stay logged for a retry.
    pub fn commit(&mut self, store: &mut Store) -> Result<usize, JournalError> {
        let n = self.append_commit(store.events_since(self.next_seq))?;
        store.release_events(self.next_seq);
        Ok(n)
    }

    /// Fsync the current segment (no-op when `fsync` is off or nothing is
    /// open). Transient failures are retried with backoff.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if self.wedged {
            return Err(JournalError::Wedged {
                dir: self.dir.clone(),
            });
        }
        let mut attempt = 0u32;
        loop {
            match self.sync_once() {
                Ok(()) => return Ok(()),
                Err(e) if e.is_transient() && attempt < self.config.max_retries => {
                    attempt += 1;
                    self.retries += 1;
                    self.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Fold the journal into a fresh snapshot of `store` under `epoch + 1`
    /// and delete the files of the previous epoch. The store must have no
    /// uncommitted events (commit first); `store` must be the state produced
    /// by snapshot + all journaled events. Transient snapshot-write
    /// failures are retried with backoff; a failed compaction leaves the
    /// journal in its previous epoch, fully usable.
    pub fn compact(&mut self, store: &Store) -> Result<CompactionReport, JournalError> {
        if self.wedged {
            return Err(JournalError::Wedged {
                dir: self.dir.clone(),
            });
        }
        let new_epoch = self.epoch + 1;
        let mut attempt = 0u32;
        loop {
            match write_snapshot(
                self.io.as_ref(),
                &self.dir,
                new_epoch,
                self.next_seq,
                store,
                self.config.fsync,
            ) {
                Ok(()) => break,
                Err(e) if e.is_transient() && attempt < self.config.max_retries => {
                    attempt += 1;
                    self.retries += 1;
                    self.backoff(attempt);
                }
                Err(e) => return Err(e),
            }
        }
        let folded = self.next_seq - self.base_seq;
        let (removed_files, removed_bytes) = self.remove_stale_epochs(new_epoch);
        self.epoch = new_epoch;
        self.base_seq = self.next_seq;
        self.next_segment_index = 0;
        self.current = None;
        Ok(CompactionReport {
            epoch: new_epoch,
            folded_events: folded,
            removed_files,
            removed_bytes,
        })
    }

    /// Re-open the journal directory in place: re-run recovery (repairing
    /// any un-sealed or damaged tail), discard the wedged state, and
    /// position appends at the recovered tail. Returns the recovered store
    /// and the recovery report; the caller decides what to do with the
    /// store (a platform usually keeps its richer in-memory state and
    /// re-appends its backlog instead).
    pub fn reopen(&mut self) -> Result<(Store, RecoveryReport), JournalError> {
        let (store, journal, report) = recover_inner(
            &self.dir.clone(),
            self.config.clone(),
            self.io.clone(),
            None,
        )?;
        let lifetime_retries = self.retries;
        *self = journal;
        self.retries = lifetime_retries;
        Ok((store, report))
    }

    /// One attempt at appending the payload batch plus its commit marker.
    /// On failure the journal's counters and files are NOT restored — the
    /// caller rolls back to its checkpoint.
    fn try_append(&mut self, payloads: &[Vec<u8>]) -> Result<(), JournalError> {
        let mut batch: Vec<u8> = Vec::new();
        for payload in payloads {
            // Rotate between records, never mid-record.
            let segment_full = self
                .current
                .as_ref()
                .is_some_and(|s| s.written + batch.len() as u64 >= self.config.segment_max_bytes);
            if self.current.is_none() || segment_full {
                self.flush_batch(&mut batch)?;
                if segment_full {
                    self.finish_segment()?;
                }
                self.open_segment()?;
            }
            record::encode(payload, &mut batch);
            self.next_seq += 1;
        }
        // The marker seals the commit: recovery discards any trailing
        // events that are not followed by one.
        record::encode(COMMIT_MARKER, &mut batch);
        self.flush_batch(&mut batch)?;
        self.sync_once()
    }

    /// The state [`Journal::rollback`] needs to restore.
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            next_seq: self.next_seq,
            next_segment_index: self.next_segment_index,
            segment: self.current.as_ref().map(|s| (s.path.clone(), s.written)),
        }
    }

    /// Undo a failed append attempt: close the handle, delete segments the
    /// attempt created, truncate the previously-open segment back to its
    /// confirmed length, restore the counters. Returns false when the disk
    /// could not be restored (the journal must wedge).
    fn rollback(&mut self, cp: &Checkpoint) -> bool {
        self.current = None;
        let mut ok = true;
        for index in cp.next_segment_index..self.next_segment_index {
            let path = self.dir.join(segment_file_name(self.epoch, index));
            if let Err(e) = self.io.remove_file(&path) {
                if e.kind() != std::io::ErrorKind::NotFound {
                    ok = false;
                }
            }
        }
        if let Some((path, written)) = &cp.segment {
            if self.io.truncate(path, *written).is_err() {
                ok = false;
            }
        }
        self.next_seq = cp.next_seq;
        self.next_segment_index = cp.next_segment_index;
        ok
    }

    /// Sleep the exponential-backoff delay for the given attempt number.
    fn backoff(&self, attempt: u32) {
        let base = self.config.retry_backoff;
        if !base.is_zero() {
            std::thread::sleep(base * 2u32.saturating_pow(attempt.saturating_sub(1)));
        }
    }

    /// One fsync of the current segment, no retry.
    fn sync_once(&mut self) -> Result<(), JournalError> {
        if let Some(seg) = &mut self.current {
            if self.config.fsync {
                seg.file
                    .sync_data()
                    .map_err(|e| JournalError::io(&seg.path, e))?;
            }
        }
        Ok(())
    }

    /// Write bytes buffered for the current segment.
    fn flush_batch(&mut self, batch: &mut Vec<u8>) -> Result<(), JournalError> {
        if batch.is_empty() {
            return Ok(());
        }
        let seg = self
            .current
            .as_mut()
            .expect("flush_batch only called with an open segment");
        seg.file
            .write_all(batch)
            .map_err(|e| JournalError::io(&seg.path, e))?;
        seg.written += batch.len() as u64;
        batch.clear();
        Ok(())
    }

    /// Close the current segment, fsyncing its tail.
    fn finish_segment(&mut self) -> Result<(), JournalError> {
        self.sync_once()?;
        self.current = None;
        Ok(())
    }

    /// Create the next segment file and write its header.
    fn open_segment(&mut self) -> Result<(), JournalError> {
        if self.current.is_some() {
            return Ok(());
        }
        let path = self
            .dir
            .join(segment_file_name(self.epoch, self.next_segment_index));
        let mut file = self
            .io
            .create_new(&path)
            .map_err(|e| JournalError::io(&path, e))?;
        // Count the segment as created *before* writing its header, so a
        // failure past this point leaves it inside the range rollback
        // deletes.
        self.next_segment_index += 1;
        let header = SegmentHeader {
            epoch: self.epoch,
            start_seq: self.next_seq,
        };
        file.write_all(&header.encode())
            .map_err(|e| JournalError::io(&path, e))?;
        if self.config.fsync {
            self.io
                .sync_dir(&self.dir)
                .map_err(|e| JournalError::io(&self.dir, e))?;
        }
        self.current = Some(OpenSegment {
            file,
            path,
            written: SEGMENT_HEADER_LEN as u64,
        });
        Ok(())
    }

    /// Delete snapshots, segments and sidecars older than `keep_epoch`,
    /// plus stray temporary files. Best-effort: failures are ignored (stale
    /// files are ignored by recovery anyway).
    fn remove_stale_epochs(&self, keep_epoch: u64) -> (usize, u64) {
        let Ok(inv) = inventory(self.io.as_ref(), &self.dir) else {
            return (0, 0);
        };
        let stale = inv.files.iter().filter(|file| match file.kind {
            FileKind::Snapshot(e, _) | FileKind::Segment(e, _) | FileKind::Sidecar(e) => {
                e < keep_epoch
            }
            FileKind::Temp => true,
        });
        let (mut removed, mut bytes) = (0, 0);
        for file in stale {
            if self.io.remove_file(&self.dir.join(&file.name)).is_ok() {
                removed += 1;
                bytes += file.len;
            }
        }
        (removed, bytes)
    }

    /// Atomically write the search-index sidecar for the current epoch.
    /// The sidecar is advisory — any damage makes the opener fall back to
    /// rebuilding the index from the store — so callers usually treat
    /// failures as warnings, not fatal.
    pub fn write_index_sidecar(&self, bytes: &[u8]) -> Result<(), JournalError> {
        write_file_atomic(
            self.io.as_ref(),
            &self.dir,
            &index_file_name(self.epoch),
            bytes,
            self.config.fsync,
        )
    }

    /// Read the current epoch's search-index sidecar, if one exists.
    /// `Ok(None)` when absent; the caller validates contents and CRCs.
    pub fn read_index_sidecar(&self) -> Result<Option<Vec<u8>>, JournalError> {
        let path = self.dir.join(index_file_name(self.epoch));
        match self.io.read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(JournalError::io(&path, e)),
        }
    }
}

/// Magic bytes of a binary snapshot's journal wrapper header.
const BIN_SNAPSHOT_MAGIC: &[u8; 8] = b"SEMEXSNJ";

/// Size of the binary snapshot's journal wrapper header: magic +
/// journal version (u32) + epoch (u64) + seq (u64) + CRC32 of the
/// preceding 28 bytes. The store's own binary image follows.
const BIN_SNAPSHOT_HEADER: usize = 32;

/// Serialize the journal wrapper header of a binary snapshot.
fn encode_bin_snapshot_header(meta: &SnapshotMeta) -> [u8; BIN_SNAPSHOT_HEADER] {
    let mut h = [0u8; BIN_SNAPSHOT_HEADER];
    h[..8].copy_from_slice(BIN_SNAPSHOT_MAGIC);
    h[8..12].copy_from_slice(&meta.journal_version.to_le_bytes());
    h[12..20].copy_from_slice(&meta.epoch.to_le_bytes());
    h[20..28].copy_from_slice(&meta.seq.to_le_bytes());
    let crc = crc32(&h[..28]);
    h[28..32].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Parse and verify the journal wrapper header of a binary snapshot.
fn decode_bin_snapshot_header(bytes: &[u8], path: &Path) -> Result<SnapshotMeta, JournalError> {
    let invalid = |reason: String| JournalError::Invalid {
        dir: path.parent().unwrap_or(Path::new("")).to_path_buf(),
        reason,
    };
    if bytes.len() < BIN_SNAPSHOT_HEADER || &bytes[..8] != BIN_SNAPSHOT_MAGIC {
        return Err(invalid(format!(
            "snapshot {} is not a binary snapshot (bad magic)",
            path.display()
        )));
    }
    let declared = u32::from_le_bytes(bytes[28..32].try_into().unwrap());
    if crc32(&bytes[..28]) != declared {
        return Err(invalid(format!(
            "snapshot {} has a corrupt header (CRC mismatch)",
            path.display()
        )));
    }
    let journal_version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if journal_version != FORMAT_VERSION {
        return Err(invalid(format!(
            "snapshot {} has journal format version {journal_version}, this build reads {FORMAT_VERSION}",
            path.display()
        )));
    }
    Ok(SnapshotMeta {
        journal_version,
        epoch: u64::from_le_bytes(bytes[12..20].try_into().unwrap()),
        seq: u64::from_le_bytes(bytes[20..28].try_into().unwrap()),
    })
}

/// Atomically write `contents` via a temp file and rename. On failure the
/// temp file is removed best-effort and the destination is untouched.
pub(crate) fn write_file_atomic(
    io: &dyn JournalIo,
    dir: &Path,
    name: &str,
    contents: &[u8],
    fsync: bool,
) -> Result<(), JournalError> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    let written = (|| -> Result<(), JournalError> {
        let mut f = io
            .create_truncate(&tmp_path)
            .map_err(|e| JournalError::io(&tmp_path, e))?;
        f.write_all(contents)
            .map_err(|e| JournalError::io(&tmp_path, e))?;
        if fsync {
            f.sync_all().map_err(|e| JournalError::io(&tmp_path, e))?;
        }
        Ok(())
    })();
    if let Err(e) = written {
        io.remove_file(&tmp_path).ok();
        return Err(e);
    }
    io.rename(&tmp_path, &final_path)
        .map_err(|e| JournalError::io(&final_path, e))?;
    if fsync {
        io.sync_dir(dir).map_err(|e| JournalError::io(dir, e))?;
    }
    Ok(())
}

/// Atomically write the `epoch` snapshot of `store`: the binary journal
/// header, then the store's `SEMEXSNP` image.
pub(crate) fn write_snapshot(
    io: &dyn JournalIo,
    dir: &Path,
    epoch: u64,
    seq: u64,
    store: &Store,
    fsync: bool,
) -> Result<(), JournalError> {
    let meta = SnapshotMeta {
        journal_version: FORMAT_VERSION,
        epoch,
        seq,
    };
    let image = store.to_binary()?;
    let mut bytes = Vec::with_capacity(BIN_SNAPSHOT_HEADER + image.len());
    bytes.extend_from_slice(&encode_bin_snapshot_header(&meta));
    bytes.extend_from_slice(&image);
    write_file_atomic(io, dir, &snapshot_file_name(epoch), &bytes, fsync)
}

/// Read a whole file as UTF-8.
fn read_utf8(io: &dyn JournalIo, path: &Path) -> Result<String, JournalError> {
    let bytes = io.read(path).map_err(|e| JournalError::io(path, e))?;
    String::from_utf8(bytes).map_err(|_| JournalError::Invalid {
        dir: path.parent().unwrap_or(Path::new("")).to_path_buf(),
        reason: format!("snapshot {} is not valid UTF-8", path.display()),
    })
}

/// Load a snapshot file: journal meta, then the store image.
pub(crate) fn read_snapshot(
    io: &dyn JournalIo,
    path: &Path,
    format: SnapshotFormat,
) -> Result<(SnapshotMeta, Store), JournalError> {
    let (meta, image) = verify_snapshot(io, path, format)?;
    Ok((meta, image.into_store()?))
}

/// A snapshot file checked as far as a reader needs to trust it, but not
/// yet materialized into a [`Store`].
pub(crate) enum SnapshotImage {
    /// A binary image whose header and every section CRC were verified;
    /// nothing is decoded yet.
    Binary(Vec<u8>),
    /// A legacy JSON snapshot: only a full parse checks one.
    Json(Store),
}

impl SnapshotImage {
    /// The store the image holds.
    pub(crate) fn into_store(self) -> Result<Store, JournalError> {
        match self {
            SnapshotImage::Binary(bytes) => Ok(Store::from_binary(&bytes[BIN_SNAPSHOT_HEADER..])?),
            SnapshotImage::Json(store) => Ok(store),
        }
    }
}

/// Read a snapshot file and verify it without building a store: for a
/// binary image, the journal header plus the image's header, section table
/// and section CRCs — the checks that make a damaged snapshot fall back.
pub(crate) fn verify_snapshot(
    io: &dyn JournalIo,
    path: &Path,
    format: SnapshotFormat,
) -> Result<(SnapshotMeta, SnapshotImage), JournalError> {
    match format {
        SnapshotFormat::Json => {
            let contents = read_utf8(io, path)?;
            let (meta_line, store_json) =
                contents
                    .split_once('\n')
                    .ok_or_else(|| JournalError::Invalid {
                        dir: path.parent().unwrap_or(Path::new("")).to_path_buf(),
                        reason: format!("snapshot {} has no meta line", path.display()),
                    })?;
            let meta: SnapshotMeta = serde_json::from_str(meta_line)?;
            if meta.journal_version != FORMAT_VERSION {
                return Err(JournalError::Invalid {
                    dir: path.parent().unwrap_or(Path::new("")).to_path_buf(),
                    reason: format!(
                        "snapshot {} has journal format version {}, this build reads {}",
                        path.display(),
                        meta.journal_version,
                        FORMAT_VERSION
                    ),
                });
            }
            let store = Store::from_json(store_json)?;
            Ok((meta, SnapshotImage::Json(store)))
        }
        SnapshotFormat::Binary => {
            let bytes = io.read(path).map_err(|e| JournalError::io(path, e))?;
            let meta = decode_bin_snapshot_header(&bytes, path)?;
            SnapshotReader::open(&bytes[BIN_SNAPSHOT_HEADER..]).map_err(SnapshotError::from)?;
            Ok((meta, SnapshotImage::Binary(bytes)))
        }
    }
}

/// Open a journal directory: load the newest snapshot, replay its epoch's
/// segments (truncating at the first torn, corrupt, or un-committed
/// record run), and return the recovered store plus an append-ready
/// journal.
///
/// The recovered store records events numbered with the journal's
/// sequence: its log starts at the snapshot's sequence and holds the
/// replayed tail, so its head is the journal's next sequence number.
///
/// An empty (or absent) directory is initialized with an empty
/// builtin-model store. Replay damage is *repaired*: the damaged segment is
/// truncated to its last sealed commit and unreachable later segments are
/// deleted, so the next recovery is clean and appends continue from the
/// recovered state.
pub fn recover(
    dir: &Path,
    config: JournalConfig,
) -> Result<(Store, Journal, RecoveryReport), JournalError> {
    recover_inner(dir, config, Arc::new(RealIo), None)
}

/// [`recover`], but an empty directory is initialized with `initial`
/// instead of an empty builtin-model store.
pub fn recover_or_adopt(
    dir: &Path,
    config: JournalConfig,
    initial: Store,
) -> Result<(Store, Journal, RecoveryReport), JournalError> {
    recover_inner(dir, config, Arc::new(RealIo), Some(initial))
}

/// [`recover`] through an explicit [`JournalIo`] implementation (fault
/// injection, instrumentation).
pub fn recover_with_io(
    dir: &Path,
    config: JournalConfig,
    io: Arc<dyn JournalIo>,
) -> Result<(Store, Journal, RecoveryReport), JournalError> {
    recover_inner(dir, config, io, None)
}

fn recover_inner(
    dir: &Path,
    config: JournalConfig,
    io: Arc<dyn JournalIo>,
    initial: Option<Store>,
) -> Result<(Store, Journal, RecoveryReport), JournalError> {
    let (store, journal, mut report) = replay(dir, config.clone(), Arc::clone(&io), initial)?;
    let unapplied = report
        .damage
        .as_ref()
        .is_some_and(|d| d.kind == DamageKind::Apply);
    if !unapplied || journal.wedged {
        return Ok((store, journal, report));
    }
    // A sealed batch whose event failed to apply left the events before it
    // in the store, while the repair cut the log back to the marker before
    // the batch. Replay the repaired log from the snapshot, so the store,
    // the sequence and the disk agree on the whole batch being gone.
    let (store, journal, replayed) = replay(dir, config, io, None)?;
    report.events_applied = replayed.events_applied;
    report.segments_replayed = replayed.segments_replayed;
    report.warnings.extend(replayed.warnings);
    Ok((store, journal, report))
}

/// One replay of a journal directory: snapshot, then every sealed batch of
/// its epoch's log, repairing the log at the first damage.
fn replay(
    dir: &Path,
    config: JournalConfig,
    io: Arc<dyn JournalIo>,
    initial: Option<Store>,
) -> Result<(Store, Journal, RecoveryReport), JournalError> {
    io.create_dir_all(dir)
        .map_err(|e| JournalError::io(dir, e))?;
    let inv = inventory(io.as_ref(), dir)?;

    let initialized = inv.snapshots.is_empty();
    let mut warnings = Vec::new();
    let Picked {
        epoch,
        format,
        base_seq,
        mut store,
    } = if initialized {
        if inv.journal_file().is_some() {
            return Err(JournalError::Invalid {
                dir: dir.to_path_buf(),
                reason: "journal segments present but no snapshot".into(),
            });
        }
        // Fresh directory: initialize epoch 0.
        let store = initial.unwrap_or_else(Store::with_builtin_model);
        write_snapshot(io.as_ref(), dir, 0, 0, &store, config.fsync)?;
        Picked {
            epoch: 0,
            format: SnapshotFormat::Binary,
            base_seq: 0,
            store,
        }
    } else {
        let (picked, rejected) = pick_snapshot(io.as_ref(), dir, &inv, read_snapshot)?;
        for (path, reason) in &rejected {
            warnings.push(format!(
                "snapshot {} {reason}; falling back",
                path.display()
            ));
        }
        // With none usable, every damaged snapshot stays for inspection:
        // removing them would let the next open initialize an empty
        // journal in their place.
        let picked = picked.ok_or_else(|| JournalError::Invalid {
            dir: dir.to_path_buf(),
            reason: format!("no usable snapshot: {}", warnings.join("; ")),
        })?;
        // A passed-over snapshot is removed once another was picked, so
        // segments of its epoch are not replayed onto the wrong base.
        for (path, _) in rejected {
            io.remove_file(&path).ok();
        }
        picked
    };

    let mut report = RecoveryReport {
        epoch,
        base_seq,
        events_applied: 0,
        segments_replayed: 0,
        damage: None,
        initialized,
        warnings,
    };
    // Replay records into the store's event log, numbered from the
    // snapshot's sequence: the recovered store holds the replayed tail, and
    // a caller with a persisted view of an earlier position (the index
    // sidecar) reads the events past it from there.
    store.enable_events_at(base_seq);

    // Clean up files a crashed compaction left behind: older (or damaged
    // same-epoch, other-format) snapshots, other-epoch segments and index
    // sidecars. Failures become warnings — the files are ignored by replay
    // either way.
    let stale = inv.files.iter().filter(|file| match file.kind {
        FileKind::Snapshot(e, f) => e < epoch || (e == epoch && f != format),
        FileKind::Segment(e, _) | FileKind::Sidecar(e) => e != epoch,
        FileKind::Temp => false,
    });
    for file in stale {
        let path = dir.join(&file.name);
        if let Err(e) = io.remove_file(&path) {
            if e.kind() != std::io::ErrorKind::NotFound {
                report
                    .warnings
                    .push(format!("stale file {} not removed: {e}", path.display()));
            }
        }
    }

    // Apply this epoch's sealed batches. A batch with an event that does
    // not apply stops the replay there.
    let live = inv.segments(epoch);
    let scan = scan(
        io.as_ref(),
        dir,
        epoch,
        base_seq,
        &live,
        |batch, segment, end| {
            for event in &batch.events {
                store.apply_event(event).map_err(|_| Damage {
                    segment: segment.to_path_buf(),
                    offset: end,
                    kind: DamageKind::Apply,
                })?;
                report.events_applied += 1;
            }
            Ok(())
        },
    )?;
    report.damage = scan.stopped.or(scan.damage);
    report.segments_replayed = scan.segments_read;

    // Physically repair damage: truncate back to the last sealed commit and
    // delete everything unreachable after it. A failed repair leaves bytes
    // on disk that a future append would contradict (the leftover tail
    // would make the next segment's start_seq look like a sequence
    // mismatch and lose acked commits), so the journal starts *wedged* —
    // readable state, but no appends until a reopen repairs cleanly.
    let mut repair_failed = false;
    let next_segment_index = if report.damage.is_some() {
        let before = report.warnings.len();
        let next = match scan.watermark {
            Some((pos, offset)) => {
                let keep = live[pos];
                let keep_path = dir.join(segment_file_name(epoch, keep));
                if let Err(e) = io.truncate(&keep_path, offset) {
                    report.warnings.push(format!(
                        "damaged segment {} not truncated to {offset} bytes: {e}",
                        keep_path.display()
                    ));
                }
                remove_segments(
                    io.as_ref(),
                    dir,
                    epoch,
                    &live[pos + 1..],
                    &mut report.warnings,
                );
                keep + 1
            }
            None => {
                remove_segments(io.as_ref(), dir, epoch, &live, &mut report.warnings);
                live.first().copied().unwrap_or(0)
            }
        };
        repair_failed = report.warnings.len() > before;
        if repair_failed {
            report
                .warnings
                .push("repair incomplete: journal is read-only until a clean reopen".into());
        }
        next
    } else {
        live.last().map(|&i| i + 1).unwrap_or(0)
    };

    let journal = Journal {
        dir: dir.to_path_buf(),
        config,
        io,
        epoch,
        base_seq,
        next_seq: base_seq + report.events_applied,
        next_segment_index,
        current: None,
        wedged: repair_failed,
        retries: 0,
    };
    Ok((store, journal, report))
}

/// Delete the given segment indexes of an epoch, collecting failures as
/// warnings.
fn remove_segments(
    io: &dyn JournalIo,
    dir: &Path,
    epoch: u64,
    indexes: &[u64],
    warnings: &mut Vec<String>,
) {
    for &i in indexes {
        let path = dir.join(segment_file_name(epoch, i));
        if let Err(e) = io.remove_file(&path) {
            if e.kind() != std::io::ErrorKind::NotFound {
                warnings.push(format!(
                    "unreachable segment {} not removed: {e}",
                    path.display()
                ));
            }
        }
    }
}
