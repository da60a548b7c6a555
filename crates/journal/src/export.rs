//! Read-only export of the journal for replication.
//!
//! The journal is already a physical replication log: every committed
//! batch is a run of framed records sealed by a commit marker, and the
//! global sequence number is the replication epoch. This module reads a
//! journal directory into shippable units with the crate's one directory
//! reader — the inventory, snapshot pick and sealed-batch scan recovery
//! uses — but without taking ownership of it and without repairing
//! anything: the primary's own recovery path owns repair, and an exporter
//! racing a crash simply stops at the first unsealed or damaged byte and
//! ships the durable prefix. Where recovery applies a sealed batch, export
//! keeps it.
//!
//! Three pieces live here:
//!
//! - [`export_tail`]: the newest snapshot (when the requested start
//!   predates the current epoch's base) plus every sealed commit batch
//!   from a given sequence number on.
//! - [`install_snapshot`]: seed a *fresh* follower directory with a
//!   shipped store image so the ordinary recovery path brings it up at
//!   the primary's base sequence.
//! - Ack cursors: best-effort persistence of per-follower acknowledged
//!   sequence numbers, so a restarted primary remembers roughly where its
//!   followers were. Cursors are advisory (followers re-announce their
//!   position on connect); they use direct `std::fs`, not [`JournalIo`],
//!   so exporting never perturbs fault-injection op counts.

use crate::io::{JournalIo, RealIo};
use crate::journal::{verify_snapshot, write_snapshot, JournalError};
use crate::reader::{inventory, pick_snapshot, scan, Picked};
use semex_store::{Store, StoreEvent};
use std::collections::HashMap;
use std::path::Path;

/// One sealed commit batch, exactly as replay would apply it.
#[derive(Debug, Clone)]
pub struct ExportedBatch {
    /// Global sequence number of the batch's first event.
    pub start_seq: u64,
    /// The committed events, in append order.
    pub events: Vec<StoreEvent>,
}

impl ExportedBatch {
    /// Sequence number just past this batch — what a follower's head
    /// becomes after applying it.
    pub fn end_seq(&self) -> u64 {
        self.start_seq + self.events.len() as u64
    }
}

/// What [`export_tail`] found: an optional bootstrap snapshot, the sealed
/// batches from the requested position, and the durable head.
#[derive(Debug)]
pub struct JournalTail {
    /// `(base_seq, store)` of the newest snapshot, present only when the
    /// requested `from_seq` predates the current epoch's base (the
    /// follower is too far behind to catch up from segments alone —
    /// compaction already folded the events it is missing).
    pub snapshot: Option<(u64, Store)>,
    /// Sealed commit batches, ascending by `start_seq`, starting at the
    /// requested position (or the snapshot base when one is included).
    pub batches: Vec<ExportedBatch>,
    /// Sequence number just past the last sealed commit on disk. Batches
    /// appended after the directory listing are picked up by the next
    /// export; an unsealed or damaged tail is silently excluded.
    pub head: u64,
}

/// Parse the journal directory at `dir` into shippable form: everything a
/// follower positioned at `from_seq` needs to reach the durable head.
///
/// Read-only and repair-free — safe to run concurrently with the owning
/// journal's appends (a half-written tail batch is simply not sealed yet
/// and is excluded). When `from_seq` falls *inside* a sealed batch the
/// directory and the follower have diverged (the follower acked a commit
/// boundary this journal never produced) and the export fails with
/// [`JournalError::Invalid`].
pub fn export_tail(
    dir: &Path,
    io: &dyn JournalIo,
    from_seq: u64,
) -> Result<JournalTail, JournalError> {
    export_inner(dir, io, from_seq, false)
}

/// Like [`export_tail`] but for a follower that holds *no* state at all:
/// the newest snapshot is always included, even when its base is the
/// sequence the follower asked for. A journal initialized from an
/// already-populated store folds that store into its sequence-0 snapshot;
/// "I am at sequence 0" and "I have nothing" are different positions, and
/// only the latter needs the base image.
pub fn export_bootstrap(dir: &Path, io: &dyn JournalIo) -> Result<JournalTail, JournalError> {
    export_inner(dir, io, 0, true)
}

fn export_inner(
    dir: &Path,
    io: &dyn JournalIo,
    from_seq: u64,
    force_snapshot: bool,
) -> Result<JournalTail, JournalError> {
    // The same inventory, snapshot pick and scan as recovery, but passed-over
    // snapshots stay where they are: repair is the owning journal's job.
    // The pick only verifies the image; a store is built from it only when
    // the export ships it.
    let inv = inventory(io, dir)?;
    let Some(Picked {
        epoch,
        base_seq,
        store: image,
        ..
    }) = pick_snapshot(io, dir, &inv, verify_snapshot)?.0
    else {
        return Err(JournalError::Invalid {
            dir: dir.to_path_buf(),
            reason: "no usable snapshot to export from".into(),
        });
    };

    let snapshot = if force_snapshot || from_seq < base_seq {
        Some((base_seq, image.into_store()?))
    } else {
        None
    };
    // With a snapshot shipped, batches continue from its base; without
    // one, from the follower's requested position.
    let from = if snapshot.is_some() {
        base_seq
    } else {
        from_seq
    };

    let mut batches: Vec<ExportedBatch> = Vec::new();
    let scan = scan(
        io,
        dir,
        epoch,
        base_seq,
        &inv.segments(epoch),
        |batch, _, _| {
            if batch.start_seq >= from {
                batches.push(batch);
            } else if batch.end_seq() > from {
                return Err(JournalError::Invalid {
                    dir: dir.to_path_buf(),
                    reason: format!(
                        "export position {from} falls inside the sealed batch [{}, {}); \
                         follower and journal have diverged",
                        batch.start_seq,
                        batch.end_seq()
                    ),
                });
            }
            Ok(())
        },
    )?;
    // Damage ends the export like the log's end does — everything sealed
    // before it ships; only a divergence fails it.
    if let Some(diverged) = scan.stopped {
        return Err(diverged);
    }
    Ok(JournalTail {
        snapshot,
        batches,
        head: scan.head,
    })
}

/// Seed a fresh follower directory with a shipped store image at
/// `base_seq`, so the ordinary recovery path opens it at exactly the
/// primary's snapshot state. Refuses a directory that already holds a
/// journal — bootstrap never overwrites local durable state.
///
/// The image is written as a binary snapshot, like every snapshot this
/// build writes; only the wire carries the store as JSON.
pub fn install_snapshot(dir: &Path, base_seq: u64, store: &Store) -> Result<(), JournalError> {
    let io = RealIo;
    io.create_dir_all(dir)
        .map_err(|e| JournalError::io(dir, e))?;
    if let Some(name) = inventory(&io, dir)?.journal_file() {
        return Err(JournalError::Invalid {
            dir: dir.to_path_buf(),
            reason: format!(
                "refusing to install a bootstrap snapshot over existing journal file {name}"
            ),
        });
    }
    // Epoch 1 distinguishes a shipped image from a locally-initialized
    // epoch-0 journal; recovery simply picks the newest epoch.
    write_snapshot(&io, dir, 1, base_seq, store, true)
}

/// Name of the per-follower ack-cursor file inside a primary's journal
/// directory. Deliberately matches none of the snapshot/segment/sidecar
/// patterns, so recovery and compaction ignore it.
const ACK_CURSOR_FILE: &str = "replica-acks.json";

/// Read the persisted per-follower ack cursors. Best-effort: a missing or
/// unreadable file is an empty map (followers re-announce their position
/// on every connect; the cursor is a hint, not a source of truth).
pub fn read_ack_cursors(dir: &Path) -> HashMap<String, u64> {
    let Ok(bytes) = std::fs::read(dir.join(ACK_CURSOR_FILE)) else {
        return HashMap::new();
    };
    serde_json::from_slice(&bytes).unwrap_or_default()
}

/// Persist the per-follower ack cursors, best-effort (errors are the
/// caller's to ignore — losing a cursor only means a reconnecting
/// follower re-announces from its own journal). Uses direct `std::fs`
/// rather than [`JournalIo`], so replication bookkeeping never shifts
/// fault-injection op counts on the data path.
pub fn write_ack_cursors(dir: &Path, cursors: &HashMap<String, u64>) -> std::io::Result<()> {
    let bytes = serde_json::to_vec(cursors).map_err(std::io::Error::other)?;
    // `.new`, not `.tmp` — compaction sweeps `*.tmp` files.
    let tmp = dir.join(format!("{ACK_CURSOR_FILE}.new"));
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, dir.join(ACK_CURSOR_FILE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::parse_segment_name;
    use crate::{record, recover, recover_or_adopt, FaultPlan, JournalConfig};
    use semex_model::names::{attr, class};
    use semex_model::Value;

    fn test_config() -> JournalConfig {
        JournalConfig {
            fsync: false,
            ..JournalConfig::default()
        }
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("semex-export-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn add_person(store: &mut Store, label: &str) {
        let person = store.model().class(class::PERSON).unwrap();
        let name = store.model().attr(attr::NAME).unwrap();
        let obj = store.add_object(person);
        store.add_attr(obj, name, Value::from(label)).unwrap();
    }

    #[test]
    fn export_ships_sealed_batches_only() {
        let dir = temp_dir("sealed");
        let (mut store, mut journal, _) = recover(&dir, test_config()).unwrap();
        add_person(&mut store, "Alice");
        journal.commit(&mut store).unwrap();
        add_person(&mut store, "Bob");
        journal.commit(&mut store).unwrap();
        let head = journal.next_seq();

        let tail = export_tail(&dir, &RealIo, 0).unwrap();
        assert!(tail.snapshot.is_none(), "fresh journal needs no snapshot");
        assert_eq!(tail.head, head);
        assert_eq!(tail.batches.len(), 2);
        assert_eq!(tail.batches[0].start_seq, 0);
        assert_eq!(tail.batches[1].start_seq, tail.batches[0].end_seq());
        assert_eq!(tail.batches.last().unwrap().end_seq(), head);

        // Exporting from the head ships nothing but still reports it.
        let caught_up = export_tail(&dir, &RealIo, head).unwrap();
        assert!(caught_up.batches.is_empty());
        assert_eq!(caught_up.head, head);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_before_compacted_base_includes_snapshot() {
        let dir = temp_dir("compacted");
        let (mut store, mut journal, _) = recover(&dir, test_config()).unwrap();
        add_person(&mut store, "Alice");
        journal.commit(&mut store).unwrap();
        journal.compact(&store).unwrap();
        let base = journal.next_seq();
        add_person(&mut store, "Bob");
        journal.commit(&mut store).unwrap();

        let tail = export_tail(&dir, &RealIo, 0).unwrap();
        let (base_seq, mut replica) = tail.snapshot.expect("seq 0 predates the compacted base");
        assert_eq!(base_seq, base);
        assert_eq!(tail.batches.len(), 1);
        assert_eq!(tail.batches[0].start_seq, base_seq);
        // Snapshot + shipped batches reproduces the primary's live state.
        for batch in &tail.batches {
            for event in &batch.events {
                replica.apply_event(event).unwrap();
            }
        }
        assert_eq!(replica.to_json().unwrap(), store.to_json().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bootstrap_export_ships_the_base_snapshot_even_at_sequence_zero() {
        let src = temp_dir("boot-src");
        let (mut store, mut journal, _) = recover(&src, test_config()).unwrap();
        add_person(&mut store, "Alice");
        journal.commit(&mut store).unwrap();
        let json = store.to_json().unwrap();

        // A journal *born from* that populated store: the whole state
        // lives in its base snapshot and there are no batches to ship.
        let dir = temp_dir("boot-born");
        let seeded = Store::from_json(&json).unwrap();
        let (born, born_journal, report) = recover_or_adopt(&dir, test_config(), seeded).unwrap();
        assert!(report.initialized);
        let head = born_journal.next_seq();

        // A follower claiming to *be at* the head gets nothing — correct
        // for a peer that already materialized the base state.
        let tail = export_tail(&dir, &RealIo, head).unwrap();
        assert!(tail.snapshot.is_none() && tail.batches.is_empty());

        // A follower that holds *nothing* must still get the base image,
        // even though its resume position equals the snapshot's base.
        let boot = export_bootstrap(&dir, &RealIo).unwrap();
        let (base_seq, shipped) = boot.snapshot.expect("bootstrap always ships the snapshot");
        assert_eq!(base_seq, head);
        assert!(boot.batches.is_empty());
        assert_eq!(shipped.to_json().unwrap(), born.to_json().unwrap());

        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_position_inside_batch_is_divergence() {
        let dir = temp_dir("diverged");
        let (mut store, mut journal, _) = recover(&dir, test_config()).unwrap();
        add_person(&mut store, "Alice"); // several events in one batch
        journal.commit(&mut store).unwrap();
        let head = journal.next_seq();
        assert!(head > 1, "one add_person journals multiple events");
        let err = export_tail(&dir, &RealIo, 1).unwrap_err();
        assert!(matches!(err, JournalError::Invalid { .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn installed_snapshot_recovers_at_base_seq() {
        let src = temp_dir("install-src");
        let dst = temp_dir("install-dst");
        let (mut store, mut journal, _) = recover(&src, test_config()).unwrap();
        add_person(&mut store, "Alice");
        journal.commit(&mut store).unwrap();
        let head = journal.next_seq();
        let json = store.to_json().unwrap();

        let store = Store::from_json(&json).unwrap();
        install_snapshot(&dst, head, &store).unwrap();
        // Installing twice is refused — the directory now holds a journal.
        assert!(install_snapshot(&dst, head, &store).is_err());

        let (recovered, recovered_journal, _) = recover(&dst, test_config()).unwrap();
        assert_eq!(recovered_journal.next_seq(), head);
        assert_eq!(recovered.to_json().unwrap(), json);
        let _ = std::fs::remove_dir_all(&src);
        let _ = std::fs::remove_dir_all(&dst);
    }

    #[test]
    fn ack_cursors_round_trip_and_tolerate_absence() {
        let dir = temp_dir("acks");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_ack_cursors(&dir).is_empty());
        let mut cursors = HashMap::new();
        cursors.insert("follower-1".to_string(), 42u64);
        cursors.insert("follower-2".to_string(), 7u64);
        write_ack_cursors(&dir, &cursors).unwrap();
        assert_eq!(read_ack_cursors(&dir), cursors);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_excludes_unsealed_tail() {
        let dir = temp_dir("unsealed");
        let (mut store, mut journal, _) = recover(&dir, test_config()).unwrap();
        add_person(&mut store, "Alice");
        journal.commit(&mut store).unwrap();
        let head = journal.next_seq();
        drop(journal);
        // Append a framed record with no commit marker — a torn commit.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| parse_segment_name(&e.file_name().to_string_lossy()).is_some())
            .unwrap()
            .path();
        let mut bytes = std::fs::read(&seg).unwrap();
        record::encode(b"{\"garbage\":true}", &mut bytes);
        std::fs::write(&seg, &bytes).unwrap();

        let tail = export_tail(&dir, &RealIo, 0).unwrap();
        assert_eq!(tail.head, head, "unsealed tail must not advance the head");
        assert_eq!(tail.batches.last().unwrap().end_seq(), head);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn export_through_fault_io_sees_same_tail() {
        // The hub reads through its own Io handle; verify the parse is
        // identical through an injector in pass-through mode.
        let dir = temp_dir("fault-pass");
        let (mut store, mut journal, _) = recover(&dir, test_config()).unwrap();
        add_person(&mut store, "Alice");
        journal.commit(&mut store).unwrap();
        let io = crate::FaultIo::new(FaultPlan::None);
        let tail = export_tail(&dir, &io, 0).unwrap();
        let real = export_tail(&dir, &RealIo, 0).unwrap();
        assert_eq!(tail.head, real.head);
        assert_eq!(tail.batches.len(), real.batches.len());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
