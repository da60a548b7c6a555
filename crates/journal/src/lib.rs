//! # semex-journal
//!
//! Durability for the SEMEX association database: an append-only,
//! checksummed write-ahead log of [`StoreEvent`]s with snapshot + replay
//! crash recovery and fold-into-snapshot compaction.
//!
//! ## Design
//!
//! The store records every mutation as a [`StoreEvent`]. A [`Journal`]
//! drains that buffer on [`commit`](Journal::commit) and appends one
//! length-prefixed, CRC32-checksummed record per event to the current
//! segment file, fsyncing once per commit. Segments rotate at a
//! configurable size.
//!
//! Recovery ([`recover`] / [`DurableStore::open`]) loads the newest
//! snapshot and replays its epoch's segments in order. A torn or corrupt
//! record does not fail recovery: replay stops there, the damaged tail is
//! truncated, and everything up to the damage point is recovered —
//! exactly the contract of a write-ahead log after a crash.
//!
//! Compaction ([`DurableStore::compact`]) folds the journal into a fresh
//! snapshot under the next *epoch* and deletes the old epoch's files. The
//! epoch lives in every file name and segment header, so a crash at any
//! point of compaction leaves at most stale files that recovery ignores.
//!
//! ```no_run
//! use semex_journal::{DurableStore, JournalConfig};
//! # fn main() -> Result<(), semex_journal::JournalError> {
//! let (mut durable, report) = DurableStore::open("space.journal", JournalConfig::default())?;
//! assert!(report.damage.is_none());
//! let person = durable.store().model().class(semex_model::names::class::PERSON).unwrap();
//! let alice = durable.store_mut().add_object(person);
//! durable.commit()?; // events are on disk once this returns
//! # Ok(()) }
//! ```
#![warn(missing_docs)]

pub mod export;
pub mod io;
pub mod journal;
pub mod record;
pub mod segment;

pub use export::{
    export_bootstrap, export_tail, install_snapshot, read_ack_cursors, write_ack_cursors,
    ExportedBatch, JournalTail,
};
pub use io::{FaultIo, FaultPlan, JournalFile, JournalIo, RealIo};
pub use journal::{
    recover, recover_or_adopt, recover_or_adopt_with_io, recover_with_io, CompactionReport, Damage,
    DamageKind, ErrorClass, Journal, JournalConfig, JournalError, RecoveryReport,
};

use semex_store::{Store, StoreEvent};
use std::path::Path;
use std::sync::Arc;

/// A [`Store`] paired with its [`Journal`]: every mutation made through
/// [`store_mut`](DurableStore::store_mut) is buffered as events, and
/// [`commit`](DurableStore::commit) makes them durable.
#[derive(Debug)]
pub struct DurableStore {
    store: Store,
    journal: Journal,
}

impl DurableStore {
    /// Open (or initialize) the journal directory at `dir` and recover the
    /// store from snapshot + replay. Event recording is enabled on the
    /// returned store.
    pub fn open(
        dir: impl AsRef<Path>,
        config: JournalConfig,
    ) -> Result<(DurableStore, RecoveryReport), JournalError> {
        let (mut store, journal, report) = recover(dir.as_ref(), config)?;
        store.enable_events();
        Ok((DurableStore { store, journal }, report))
    }

    /// Like [`open`](DurableStore::open), but when the directory is empty
    /// it is initialized with `initial` (e.g. a store built by the
    /// pipeline) instead of an empty builtin-model store. When the
    /// directory already holds a journal, `initial` is ignored and the
    /// journaled state wins.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: JournalConfig,
        initial: Store,
    ) -> Result<(DurableStore, RecoveryReport), JournalError> {
        let (mut store, journal, report) = recover_or_adopt(dir.as_ref(), config, initial)?;
        store.enable_events();
        Ok((DurableStore { store, journal }, report))
    }

    /// Like [`open`](DurableStore::open), but performing all file access
    /// through an explicit [`JournalIo`] implementation — fault injection
    /// in tests, instrumentation in benchmarks.
    pub fn open_with_io(
        dir: impl AsRef<Path>,
        config: JournalConfig,
        io: Arc<dyn JournalIo>,
    ) -> Result<(DurableStore, RecoveryReport), JournalError> {
        let (mut store, journal, report) = recover_with_io(dir.as_ref(), config, io)?;
        store.enable_events();
        Ok((DurableStore { store, journal }, report))
    }

    /// Read access to the store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable access to the store. Mutations are buffered as events;
    /// call [`commit`](DurableStore::commit) to make them durable.
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// The underlying journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Events buffered since the last commit.
    pub fn pending_events(&self) -> usize {
        self.store.pending_events()
    }

    /// Append all buffered events to the journal and fsync. Returns the
    /// number of events made durable.
    pub fn commit(&mut self) -> Result<usize, JournalError> {
        self.journal.commit(&mut self.store)
    }

    /// Commit any buffered events, then fold the whole journal into a new
    /// snapshot and delete the old epoch's files.
    pub fn compact(&mut self) -> Result<CompactionReport, JournalError> {
        self.commit()?;
        self.journal.compact(&self.store)
    }

    /// Split into the recovered store and journal.
    pub fn into_parts(self) -> (Store, Journal) {
        (self.store, self.journal)
    }
}

/// Re-exported for convenience: journal records are serialized store events.
pub type Event = StoreEvent;
