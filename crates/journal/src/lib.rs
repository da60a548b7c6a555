//! # semex-journal
//!
//! Durability for the SEMEX association database: an append-only,
//! checksummed write-ahead log of [`StoreEvent`]s with snapshot + replay
//! crash recovery and fold-into-snapshot compaction.
//!
//! ## Design
//!
//! The store records every mutation as a [`StoreEvent`] in its sequenced
//! event log. A [`Journal`] appends the events past its head on
//! [`commit`](Journal::commit), one length-prefixed, CRC32-checksummed
//! record per event, to the current segment file, fsyncing once per
//! commit. Segments rotate at a configurable size.
//!
//! Recovery ([`recover`]) loads the newest snapshot and replays its
//! epoch's segments in order. A torn or corrupt record does not fail
//! recovery: replay stops there, the damaged tail is truncated, and
//! everything up to the damage point is recovered — exactly the contract
//! of a write-ahead log after a crash.
//!
//! One reader serves every consumer of a journal directory: recovery,
//! replication export ([`export_tail`]), compaction's stale-file sweep,
//! [`install_snapshot`]'s refusal check and a follower's [`has_journal`]
//! probe. It lists the directory once, picks the snapshot to start from
//! and scans that epoch's sealed batches, so export ships exactly what
//! recovery would replay.
//!
//! Compaction ([`Journal::compact`]) folds the journal into a fresh
//! snapshot under the next *epoch* and deletes the old epoch's files. The
//! epoch lives in every file name and segment header, so a crash at any
//! point of compaction leaves at most stale files that recovery ignores.
//!
//! ```no_run
//! use semex_journal::{recover, JournalConfig};
//! # fn main() -> Result<(), semex_journal::JournalError> {
//! let dir = std::path::Path::new("space.journal");
//! let (mut store, mut journal, report) = recover(dir, JournalConfig::default())?;
//! assert!(report.damage.is_none());
//! let person = store.model().class(semex_model::names::class::PERSON).unwrap();
//! let alice = store.add_object(person);
//! journal.commit(&mut store)?; // events are on disk once this returns
//! # Ok(()) }
//! ```
#![warn(missing_docs)]

pub mod export;
pub mod io;
pub mod journal;
mod reader;
pub mod record;
pub mod segment;

pub use export::{
    export_bootstrap, export_tail, install_snapshot, read_ack_cursors, write_ack_cursors,
    ExportedBatch, JournalTail,
};
pub use io::{FaultIo, FaultPlan, JournalFile, JournalIo, RealIo};
pub use journal::{
    recover, recover_or_adopt, recover_with_io, CompactionReport, Damage, DamageKind, ErrorClass,
    Journal, JournalConfig, JournalError, RecoveryReport,
};
pub use reader::has_journal;

use semex_store::StoreEvent;

/// Re-exported for convenience: journal records are serialized store events.
pub type Event = StoreEvent;
