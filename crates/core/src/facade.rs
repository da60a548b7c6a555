//! The [`Semex`] facade: search, browse, integrate, inspect, persist.

use crate::pipeline::{BuildReport, SemexConfig};
use semex_extract::csv::{parse_csv, Table};
use semex_index::SearchIndex;
use semex_integrate::{import_rows, ImportReport, SchemaMatcher};
use semex_journal::{
    CompactionReport, Journal, JournalConfig, JournalError, JournalIo, RecoveryReport,
};
use semex_query::summary::{neighborhood, Link};
use semex_recon::{ReconState, Variant};
use semex_store::{ObjectId, SnapshotError, Store, StoreEvent, StoreStats};
use std::fmt;

/// One search result, resolved to display form.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The matching object.
    pub object: ObjectId,
    /// Its display label.
    pub label: String,
    /// Its class name.
    pub class: String,
    /// Relevance score.
    pub score: f64,
}

/// A display-oriented view of one object: label, class, attributes,
/// associations — what the SEMEX browser pane shows.
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectView {
    /// The object.
    pub object: ObjectId,
    /// Display label.
    pub label: String,
    /// Class name.
    pub class: String,
    /// `(attribute name, rendered value)` pairs.
    pub attrs: Vec<(String, String)>,
    /// Outgoing and incoming links, labelled.
    pub links: Vec<Link>,
    /// Names of the sources this object was extracted from.
    pub sources: Vec<String>,
}

impl fmt::Display for ObjectView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "[{}] {}", self.class, self.label)?;
        for (a, v) in &self.attrs {
            writeln!(f, "  {a}: {v}")?;
        }
        for l in &self.links {
            writeln!(f, "  --{}--> {}", l.label, l.target_label)?;
        }
        if !self.sources.is_empty() {
            writeln!(f, "  (from: {})", self.sources.join(", "))?;
        }
        Ok(())
    }
}

/// The queryable state of a space — the association store plus the keyword
/// index — and the one read API over it.
///
/// [`Semex`] keeps its live state as a `Snapshot` and dereferences to it, so
/// every read method below is also a method of the platform. A clone taken
/// with [`Semex::snapshot`] is the unit of *snapshot isolation* the serving
/// layer is built on: the writer publishes it behind an `Arc`, and any
/// number of reader threads query it concurrently — every read method takes
/// `&self`, and a published snapshot never observes a mutation applied after
/// it was taken.
#[derive(Debug, Clone)]
pub struct Snapshot {
    store: Store,
    index: SearchIndex,
}

impl Snapshot {
    /// The association database.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The keyword index.
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// Keyword search: top-`k` objects for a query string (supports the
    /// `class:Name` filter syntax). Runs the pruned top-k evaluator.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        self.results(self.index.search_str(&self.store, query, k))
    }

    /// [`Snapshot::search`] through the exhaustive reference scorer.
    /// Returns identical results; kept as the oracle for verification and
    /// for benchmarking the pruned path against.
    pub fn search_exhaustive(&self, query: &str, k: usize) -> Vec<SearchResult> {
        self.results(self.index.search_str_exhaustive(&self.store, query, k))
    }

    /// Resolve raw index hits to display form.
    fn results(&self, hits: Vec<semex_index::Hit>) -> Vec<SearchResult> {
        let store = &self.store;
        hits.into_iter()
            .map(|h| SearchResult {
                object: h.object,
                label: store.label(h.object),
                class: store
                    .model()
                    .class_def(store.class_of(h.object))
                    .name
                    .clone(),
                score: h.score,
            })
            .collect()
    }

    /// A full display view of one object.
    pub fn view(&self, obj: ObjectId) -> ObjectView {
        let store = &self.store;
        let obj = store.resolve(obj);
        let o = store.object(obj);
        let model = store.model();
        let attrs = o
            .attrs
            .iter()
            .map(|(a, v)| (model.attr_def(*a).name.clone(), v.render()))
            .collect();
        let sources = o
            .sources
            .iter()
            .filter_map(|&s| store.source(s).map(|i| i.name.clone()))
            .collect();
        ObjectView {
            object: obj,
            label: store.label(obj),
            class: model.class_def(o.class).name.clone(),
            attrs,
            links: neighborhood(store, obj),
            sources,
        }
    }

    /// Explain an object: its asserted facts grouped by provenance source —
    /// `(source name, rendered fact)` pairs. The demo's "where does SEMEX
    /// know this from?" affordance.
    pub fn explain(&self, obj: ObjectId) -> Vec<(String, String)> {
        let store = &self.store;
        let obj = store.resolve(obj);
        let model = store.model();
        let mut out = Vec::new();
        for t in store.triples() {
            if t.subject != obj && t.object != obj {
                continue;
            }
            let source = store
                .source(t.source)
                .map(|i| i.name.clone())
                .unwrap_or_else(|| t.source.to_string());
            let def = model.assoc_def(t.assoc);
            let fact = format!(
                "{} --{}--> {}",
                store.label(t.subject),
                def.name,
                store.label(t.object)
            );
            out.push((source, fact));
        }
        out.sort();
        out.dedup();
        out
    }

    /// Store statistics (the numbers the demo's status pane shows).
    pub fn stats(&self) -> StoreStats {
        StoreStats::compute(&self.store)
    }
}

/// The one fold of store events into derived state: the keyword index
/// (whose mark is `indexed`) and the reconciliation state (which keeps its
/// own) each take the events past their mark. Returns the index's new
/// mark.
fn fold(
    store: &Store,
    index: &mut SearchIndex,
    indexed: u64,
    recon: Option<&mut ReconState>,
) -> u64 {
    index.apply_events(store, store.events_since(indexed));
    if let Some(recon) = recon {
        recon.apply(store);
    }
    store.event_head()
}

/// The refusal of a journal operation on a platform kept in memory only.
fn no_journal(what: &str) -> JournalError {
    JournalError::Invalid {
        dir: std::path::PathBuf::new(),
        reason: format!("{what} needs a journal, and this platform has none"),
    }
}

/// A journal operation refused for `reason`.
fn invalid(journal: &Journal, reason: String) -> JournalError {
    JournalError::Invalid {
        dir: journal.dir().to_path_buf(),
        reason,
    }
}

/// The assembled SEMEX platform: one space's association database and
/// keyword index, optionally backed by a write-ahead journal.
///
/// The read API ([`Snapshot::search`], [`Snapshot::view`], …) is reached
/// through `Deref<Target = Snapshot>`. Derived state (keyword index,
/// reconciliation state) changes only through one publish step that folds
/// the store's event log past each subscriber's mark: local writes,
/// commits, replicated batches, recovery and [`Semex::snapshot`] all go
/// through it.
///
/// A platform opened with [`Semex::open_durable`] (or put under a journal
/// with [`Semex::into_durable`]) keeps its mutations in the store's event
/// log past the journal's mark; [`commit`](Semex::commit) makes them
/// durable — after a crash, [`Semex::open_durable`] recovers exactly the
/// committed state. The store numbers its events with the journal's
/// sequence, so the journal position, the index sidecar's stamp and a
/// serving tenant's epoch are one counter: the store's event head.
/// [`compact`](Semex::compact) folds the journal into a fresh snapshot when
/// replay gets long. The journal operations answer a typed
/// [`JournalError`] on a platform without a journal.
pub struct Semex {
    /// The live store and keyword index.
    state: Snapshot,
    /// The store event sequence the index reflects: its subscriber mark.
    indexed: u64,
    config: SemexConfig,
    report: BuildReport,
    /// The journal mutations are committed to; `None` keeps the platform
    /// in memory. Its next sequence number is its mark: store events from
    /// there on are the uncommitted backlog and stay in the log.
    journal: Option<Journal>,
    /// When set, mutating paths leave the index behind the log instead of
    /// publishing per mutation; [`Semex::flush_index`] folds the whole batch
    /// in one [`SearchIndex::apply_events`] call. The serving layer's
    /// writer thread uses this so N coalesced writes cost one index
    /// refresh.
    batch_index: bool,
    /// `Some(cause)` when the platform is in degraded read-only mode after
    /// a permanent journal failure: mutations are rejected with
    /// [`crate::SemexError::Degraded`] until
    /// [`Semex::try_recover_journal`] clears the condition.
    degraded: Option<String>,
    /// Reconciliation state kept current from the store's event stream, so
    /// an ingest reconciles in time proportional to its new references.
    /// Built on the first write that reconciles: a space that is only read
    /// holds none.
    recon: Option<Box<ReconState>>,
}

/// A [`Semex`] with a journal attached: the same type, for callers that
/// name a space's durability in a signature.
pub type DurableSemex = Semex;

impl fmt::Debug for Semex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Semex")
            .field("objects", &self.store().object_count())
            .field("indexed", &self.index().doc_count())
            .field("journal", &self.journal.as_ref().map(Journal::dir))
            .finish_non_exhaustive()
    }
}

impl std::ops::Deref for Semex {
    type Target = Snapshot;

    fn deref(&self) -> &Snapshot {
        &self.state
    }
}

impl Semex {
    pub(crate) fn assemble(
        mut store: Store,
        index: SearchIndex,
        config: SemexConfig,
        report: BuildReport,
    ) -> Self {
        // From here on every mutation is recorded, so the index is kept
        // current with deltas instead of rebuilds (and durable mode can
        // journal the same stream).
        store.enable_events();
        Semex {
            indexed: store.event_head(),
            state: Snapshot { store, index },
            config,
            report,
            journal: None,
            batch_index: false,
            degraded: None,
            recon: None,
        }
    }

    /// Clone the queryable state into an immutable [`Snapshot`].
    ///
    /// The snapshot reflects every mutation applied so far (including
    /// events not yet published into the master's index: those are folded
    /// into the *snapshot's* index copy so it is always current), and never
    /// changes afterwards. The snapshot's store carries none of the logged
    /// events. This is what the serving layer publishes to reader threads
    /// after each write batch.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.state.clone();
        fold(&self.state.store, &mut snap.index, self.indexed, None);
        snap
    }

    /// Switch index-refresh batching on or off. While batching is on,
    /// mutating calls ([`Semex::ingest`], [`Semex::integrate`],
    /// [`Semex::assert_same`], …) leave their store events unpublished and
    /// the master's keyword index goes stale; one [`Semex::flush_index`]
    /// call (or a [`Semex::commit`]) folds the whole batch in at once.
    /// Turning batching *off* flushes implicitly, so the index is never
    /// silently stale outside a batch.
    pub fn set_index_batching(&mut self, on: bool) {
        self.batch_index = on;
        if !on {
            self.flush_index();
        }
    }

    /// The one publish path: every subscriber takes the store events past
    /// its mark (one `fold`) — the keyword index in a single delta
    /// application — then the log drops what the index and the journal
    /// have passed. Returns the number of events the index took; a no-op
    /// when there are none. The batched write path calls this exactly once
    /// per published snapshot. (The reconciliation state is never behind
    /// the index: it folds at every publish and at the start of every
    /// run.)
    pub fn flush_index(&mut self) -> usize {
        let state = &mut self.state;
        let taken = state.store.event_head() - self.indexed;
        let recon = self.recon.as_deref_mut();
        self.indexed = fold(&state.store, &mut state.index, self.indexed, recon);
        let journaled = self.journaled();
        self.state.store.release_events(self.indexed.min(journaled));
        taken as usize
    }

    /// The journal's mark: store events from here on are the uncommitted
    /// backlog. Without a journal nothing is held back for one.
    fn journaled(&self) -> u64 {
        let head = self.state.store.event_head();
        self.journal.as_ref().map_or(head, Journal::next_seq)
    }

    /// When the platform is in degraded read-only mode, the journal failure
    /// that caused it; `None` on a healthy platform. See
    /// [`crate::SemexError::Degraded`].
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// Reject mutations while degraded: accepting them would let state
    /// diverge from what the journal can make durable.
    fn check_writable(&self) -> Result<(), crate::SemexError> {
        match &self.degraded {
            Some(cause) => Err(crate::SemexError::Degraded {
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Publish a mutation's events. Called by every mutating facade path;
    /// a no-op while index batching is on (the batch is published once by
    /// [`Semex::flush_index`]).
    fn refresh_index(&mut self) {
        if !self.batch_index {
            self.flush_index();
        }
    }

    /// The reconciliation state, once a write has reconciled.
    pub fn recon_state(&self) -> Option<&ReconState> {
        self.recon.as_deref()
    }

    /// What the build pipeline did.
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// The active configuration.
    pub fn config(&self) -> &SemexConfig {
        &self.config
    }

    /// Integrate an external CSV source on the fly: match its schema,
    /// import its rows, reconcile against the existing space, and refresh
    /// the keyword index. Returns the mapping quality and import report;
    /// `Ok(None)` when the text is not usable CSV or no usable mapping was
    /// found. Errors when the platform is degraded or the store rejects the
    /// import.
    pub fn integrate(
        &mut self,
        name: &str,
        csv: &str,
    ) -> Result<Option<(f64, ImportReport)>, crate::SemexError> {
        let Ok(table) = parse_csv(csv) else {
            return Ok(None);
        };
        self.integrate_table(name, &table)
    }

    /// [`Semex::integrate`] over an already-parsed table.
    pub fn integrate_table(
        &mut self,
        name: &str,
        table: &Table,
    ) -> Result<Option<(f64, ImportReport)>, crate::SemexError> {
        self.check_writable()?;
        let Some(mapping) = SchemaMatcher::new(&self.state.store).match_table(table) else {
            return Ok(None);
        };
        let score = mapping.score;
        let result = import_rows(&mut self.state.store, name, table, &mapping).map(|imported| {
            self.reconcile_new(&imported.created, Variant::Full);
            imported.report(&self.state.store)
        });
        // Refresh on both paths: a rejected import may have applied a prefix
        // of the rows, and the index must track whatever the store holds.
        self.refresh_index();
        let report = result.map_err(crate::SemexError::Store)?;
        Ok(Some((score, report)))
    }

    /// Incrementally ingest a new source into a built platform: extract,
    /// reconcile the grown reference graph, and fold the mutations into
    /// the keyword index.
    /// This is the demo's "desktop monitor noticed new mail" path. Returns
    /// the extraction stats for the new source.
    ///
    /// Cross-source registries (reply threading to *old* messages, BibTeX
    /// keys from *old* bibliographies) do not span ingest calls; batch
    /// related sources into one [`crate::SemexBuilder`] build when that
    /// matters.
    pub fn ingest(
        &mut self,
        spec: crate::SourceSpec,
    ) -> Result<semex_extract::ExtractStats, crate::SemexError> {
        self.check_writable()?;
        let store = &mut self.state.store;
        let sid = store.register_source(semex_store::SourceInfo::new(spec.name(), spec.kind()));
        let first_new_slot = store.slot_count() as u64;
        let result = spec.extract(&mut semex_extract::ExtractContext::new(store, sid));
        let stats = result.map_err(|error| crate::SemexError::Extract {
            source: spec.name().to_owned(),
            error,
        })?;
        if !self.config.skip_recon {
            // Incremental: only pairs touching the just-extracted
            // references are (re)considered — old-old pairs were settled by
            // the build-time run.
            let new_objects: Vec<ObjectId> = (first_new_slot..self.store().slot_count() as u64)
                .map(ObjectId)
                .collect();
            self.reconcile_new(&new_objects, self.config.recon_variant);
        }
        self.refresh_index();
        Ok(stats)
    }

    /// Reconcile references created since the last run against the space,
    /// through the persistent state (built here on first use).
    fn reconcile_new(&mut self, new_objects: &[ObjectId], variant: Variant) {
        let store = &mut self.state.store;
        self.recon
            .get_or_insert_with(|| Box::new(ReconState::new(store)))
            .reconcile(store, new_objects, variant, &self.config.recon);
    }

    /// User feedback: assert that two objects denote the same entity.
    /// Merges them immediately (pooling attributes and re-pointing edges),
    /// records the pair as a must-link constraint for future
    /// reconciliation runs, and refreshes the index.
    pub fn assert_same(&mut self, a: ObjectId, b: ObjectId) -> Result<(), crate::SemexError> {
        self.check_writable()?;
        self.config.recon.must_link.push((a, b));
        let store = &mut self.state.store;
        if store.resolve(a) != store.resolve(b) {
            store.merge(a, b).map_err(crate::SemexError::Store)?;
        }
        self.refresh_index();
        Ok(())
    }

    /// User feedback: assert that two objects denote different entities.
    /// Recorded as a cannot-link constraint respected by every future
    /// reconciliation run (ingest, integrate). Already-merged objects
    /// cannot be split — returns `Ok(false)` in that case so the caller can
    /// tell the user. Errors when the platform is degraded.
    pub fn assert_distinct(&mut self, a: ObjectId, b: ObjectId) -> Result<bool, crate::SemexError> {
        self.check_writable()?;
        if self.store().resolve(a) == self.store().resolve(b) {
            return Ok(false);
        }
        self.config.recon.cannot_link.push((a, b));
        Ok(true)
    }

    /// Snapshot the association database to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        self.store().save(path)
    }

    /// Snapshot a *compacted* copy of the association database: merge-alias
    /// slots are dropped and objects renumbered, shrinking the file after
    /// heavy reconciliation. Note that object ids in the snapshot differ
    /// from this session's ids (the store itself is untouched).
    pub fn save_compacted(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        let (compact, _mapping) = self.store().compacted();
        compact.save(path)
    }

    /// Restore a platform from a snapshot (rebuilds the keyword index).
    /// The returned platform's [`BuildReport`] is marked
    /// [`restored`](BuildReport::restored): empty extraction stats mean
    /// "loaded, not built", not "built from nothing".
    pub fn load(path: &std::path::Path, config: SemexConfig) -> Result<Semex, SnapshotError> {
        let store = Store::load(path)?;
        let index = SearchIndex::build_threaded(&store, config.recon.threads.max(1));
        let indexed = index.doc_count();
        Ok(Semex::assemble(
            store,
            index,
            config,
            BuildReport::restored(indexed),
        ))
    }

    /// Open a durable platform backed by a write-ahead journal directory:
    /// recover the store from snapshot + journal replay (initializing the
    /// directory on first use) and rebuild the keyword index.
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        config: SemexConfig,
    ) -> Result<(Semex, RecoveryReport), JournalError> {
        Semex::open_durable_with(dir, config, JournalConfig::default())
    }

    /// [`Semex::open_durable`] with explicit journal tunables.
    pub fn open_durable_with(
        dir: impl AsRef<std::path::Path>,
        config: SemexConfig,
        journal_config: JournalConfig,
    ) -> Result<(Semex, RecoveryReport), JournalError> {
        let recovered = semex_journal::recover(dir.as_ref(), journal_config)?;
        Ok(Semex::assemble_durable(recovered, config))
    }

    /// [`Semex::open_durable_with`] through an explicit [`JournalIo`]
    /// implementation (fault injection, instrumentation).
    pub fn open_durable_io(
        dir: impl AsRef<std::path::Path>,
        config: SemexConfig,
        journal_config: JournalConfig,
        io: std::sync::Arc<dyn JournalIo>,
    ) -> Result<(Semex, RecoveryReport), JournalError> {
        let recovered = semex_journal::recover_with_io(dir.as_ref(), journal_config, io)?;
        Ok(Semex::assemble_durable(recovered, config))
    }

    fn assemble_durable(
        (store, journal, report): (Store, Journal, RecoveryReport),
        config: SemexConfig,
    ) -> (Semex, RecoveryReport) {
        // Recovery left the replayed tail in the store's log: the publish
        // below folds what a sidecar index lacks.
        let sidecar = Semex::read_sidecar(&store, &journal, &report);
        // `fresh` = the sidecar already matches the recovered position
        // byte-for-byte, so re-writing it would only add an fsync to the
        // cold-open path the sidecar exists to make cheap.
        let head = store.event_head();
        let fresh = sidecar.as_ref().is_some_and(|(_, seq)| *seq == head);
        let (index, indexed) = sidecar.unwrap_or_else(|| {
            let index = SearchIndex::build_threaded(&store, config.recon.threads.max(1));
            (index, head)
        });
        let mut semex = Semex::assemble(store, index, config, BuildReport::restored(0));
        semex.indexed = indexed;
        semex.journal = Some(journal);
        semex.flush_index();
        semex.report = BuildReport::restored(semex.index().doc_count());
        if !fresh {
            semex.refresh_index_sidecar();
        }
        (semex, report)
    }

    /// The keyword index from the epoch's binary sidecar, with the store
    /// event sequence it reflects. The sidecar is *advisory*: it is used
    /// only when intact (CRC-verified) and stamped inside the log recovery
    /// left — `seq` between the snapshot's sequence and the head. Anything
    /// else returns `None` and the caller rebuilds.
    fn read_sidecar(
        store: &Store,
        journal: &Journal,
        report: &RecoveryReport,
    ) -> Option<(SearchIndex, u64)> {
        let bytes = journal.read_index_sidecar().ok()??;
        let sidecar = SearchIndex::from_sidecar(&bytes).ok()?;
        let inside = (report.base_seq..=store.event_head()).contains(&sidecar.seq);
        (sidecar.epoch == report.epoch && inside).then_some((sidecar.index, sidecar.seq))
    }

    /// Put an already-built platform under journal protection: the
    /// directory is initialized with a snapshot of this platform's store
    /// (it must not already hold a journal), and every subsequent mutation
    /// is journaled.
    pub fn into_durable(
        mut self,
        dir: impl AsRef<std::path::Path>,
        journal_config: JournalConfig,
    ) -> Result<Semex, JournalError> {
        let dir = dir.as_ref();
        // The initial snapshot captures the store as-is; publish first so
        // the index reflects everything it holds, even under index batching.
        self.flush_index();
        let (store, journal, report) =
            semex_journal::recover_or_adopt(dir, journal_config, self.state.store)?;
        if !report.initialized {
            return Err(JournalError::Invalid {
                dir: dir.to_path_buf(),
                reason: "directory already holds a journal; open it with open_durable instead"
                    .into(),
            });
        }
        // The adopted store now numbers its events with the journal's
        // sequence; the subscribers restart there.
        self.state.store = store;
        self.recon = None;
        self.indexed = self.store().event_head();
        self.journal = Some(journal);
        self.refresh_index_sidecar();
        Ok(self)
    }

    /// The journal, when the platform has one.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Store events logged since the last commit: the backlog past the
    /// journal's mark (none without a journal).
    pub fn pending_events(&self) -> usize {
        let head = self.store().event_head();
        head.saturating_sub(self.journaled()) as usize
    }

    /// Publish, then — when the platform has a journal — append the events
    /// past the journal's mark to it and fsync. Returns the number of
    /// events made durable (without a journal, the number of events the
    /// index took). On failure the mark does not move, so the events stay
    /// logged (the index already reflects them) and a retry commits them.
    /// Transient failures were already retried inside the journal; a
    /// permanent failure (full disk, wedged log) additionally puts the
    /// platform into degraded read-only mode — see
    /// [`Semex::try_recover_journal`].
    pub fn commit(&mut self) -> Result<usize, JournalError> {
        // Publish even under index batching: commit is the batch boundary
        // of the batched write path, and this is the single
        // `apply_events` call its mutations cost.
        let taken = self.flush_index();
        let Some(journal) = self.journal.as_mut() else {
            return Ok(taken);
        };
        let store = &mut self.state.store;
        match journal.append_commit(store.events_since(journal.next_seq())) {
            Ok(n) => {
                store.release_events(self.indexed);
                Ok(n)
            }
            Err(e) => {
                if !e.is_transient() {
                    self.degraded = Some(e.to_string());
                }
                Err(e)
            }
        }
    }

    /// Attempt to leave degraded read-only mode after the underlying
    /// condition (full disk, I/O failure) has been fixed: re-open the
    /// journal in place — repairing any damaged or un-sealed tail — then
    /// commit the backlog. On success the platform accepts mutations again;
    /// returns the number of backlog events committed. On failure the
    /// platform stays degraded, with the backlog still logged, and the call
    /// can simply be retried.
    ///
    /// Also callable on a healthy platform, where it is just a reopen plus
    /// commit. Refused, with nothing changed, on a platform without a
    /// journal, and on a follower whose replicated batch failed part-way:
    /// its journal holds the whole batch and its store only the prefix,
    /// which no reopen reconciles.
    pub fn try_recover_journal(&mut self) -> Result<usize, JournalError> {
        let head = self.store().event_head();
        let Some(journal) = self.journal.as_mut() else {
            return Err(no_journal("recovering the journal"));
        };
        if journal.next_seq() > head {
            return Err(invalid(
                journal,
                "the store holds only part of a journaled batch; bootstrap the follower afresh"
                    .into(),
            ));
        }
        // A failed commit that reached the disk in full — only its
        // acknowledgment was lost — is replayed by the reopen: the
        // journal's mark moves past it, so it is not appended twice.
        journal.reopen()?;
        let n = self.commit()?;
        self.degraded = None;
        Ok(n)
    }

    /// Apply one sealed commit batch shipped from a replication primary,
    /// starting at global sequence `start_seq`: journal it first (a
    /// follower's acknowledgment must never run ahead of its own
    /// durability), apply the events to the store, and publish. Returns the
    /// new durable head — the journal's next sequence number, which is the
    /// epoch the batch is acked at.
    ///
    /// Refused with [`JournalError::Invalid`], nothing applied, on a
    /// platform without a journal (nothing would track the replicated
    /// position), when `start_seq` is not the journal's head (the follower
    /// and the primary have diverged), on a degraded follower, and when
    /// local mutations are logged: a follower that wrote locally has
    /// diverged from the primary, and interleaving its events with shipped
    /// ones would corrupt both histories. An event that fails to apply
    /// after journaling is logical divergence: the prefix that did apply is
    /// published, and the platform degrades to read-only.
    pub fn apply_replicated(
        &mut self,
        start_seq: u64,
        events: &[StoreEvent],
    ) -> Result<u64, JournalError> {
        let pending = self.pending_events();
        let Some(journal) = self.journal.as_mut() else {
            return Err(no_journal("following a primary"));
        };
        let head = journal.next_seq();
        if start_seq != head {
            return Err(invalid(
                journal,
                format!(
                    "replicated batch starts at {start_seq} but the follower's durable head \
                     is {head}"
                ),
            ));
        }
        if let Some(cause) = &self.degraded {
            return Err(invalid(journal, format!("follower is degraded: {cause}")));
        }
        if pending > 0 {
            return Err(invalid(
                journal,
                "follower has local uncommitted mutations; it has diverged from the primary".into(),
            ));
        }
        journal.append_commit(events)?;
        let store = &mut self.state.store;
        let Some(e) = events
            .iter()
            .find_map(|event| store.apply_event(event).err())
        else {
            self.flush_index();
            return Ok(self.journaled());
        };
        // The journal already sealed the batch but the store cannot
        // represent it: logical divergence. Publish the prefix and degrade —
        // serving reads of a half-applied batch is worse than refusing
        // writes.
        let reason = format!("replicated event failed to apply: {e}");
        let err = invalid(journal, reason.clone());
        self.flush_index();
        self.degraded = Some(reason);
        Err(err)
    }

    /// Commit, then fold the whole journal into a new snapshot and delete
    /// the old epoch's files. The keyword index is also persisted as the
    /// new epoch's sidecar, so the next open skips the rebuild.
    pub fn compact(&mut self) -> Result<CompactionReport, JournalError> {
        self.commit()?;
        let Some(journal) = self.journal.as_mut() else {
            return Err(no_journal("compaction"));
        };
        let report = journal.compact(&self.state.store)?;
        self.refresh_index_sidecar();
        Ok(report)
    }

    /// Persist the current keyword index as the epoch's binary sidecar.
    /// Best-effort: the sidecar is advisory (any damage just costs the
    /// next open a rebuild), so failures are swallowed rather than failing
    /// the commit path that triggered it.
    fn refresh_index_sidecar(&self) {
        if let Some(journal) = &self.journal {
            // Stamp the position the index actually reflects: its mark,
            // which callers have published up to the journal's head.
            let bytes = self.index().to_sidecar(journal.epoch(), self.indexed);
            journal.write_index_sidecar(&bytes).ok();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SemexBuilder;
    use semex_model::names::class;

    fn demo() -> Semex {
        SemexBuilder::new()
            .add_bibtex(
                "library",
                "@inproceedings{d5, title={Reference Reconciliation in Complex Spaces}, author={Dong, Xin and Halevy, Alon}, booktitle={SIGMOD}, year=2005}",
            )
            .add_mbox(
                "inbox",
                "From: Xin Dong <luna@cs.example.edu>\nTo: Alon Halevy <alon@cs.example.edu>\nSubject: demo plan\n\nSee you Friday.",
            )
            .build()
            .unwrap()
    }

    #[test]
    fn view_renders_object() {
        let semex = demo();
        let hits = semex.search("class:Person dong", 5);
        assert_eq!(hits.len(), 1);
        let view = semex.view(hits[0].object);
        assert_eq!(view.class, class::PERSON);
        assert!(view.attrs.iter().any(|(a, _)| a == "name"));
        assert!(!view.links.is_empty(), "authored + sender links");
        let text = view.to_string();
        assert!(text.contains("[Person]"));
        assert!(text.contains("-->"));
    }

    #[test]
    fn integrate_csv_end_to_end() {
        let mut semex = demo();
        let c_person = semex.store().model().class(class::PERSON).unwrap();
        let before = semex.store().class_count(c_person);
        let (score, report) = semex
            .integrate(
                "attendees",
                "name,email\nXin Dong,luna@cs.example.edu\nCarol Reyes,carol@z.net\n",
            )
            .unwrap()
            .unwrap();
        assert!(score > 0.5);
        assert_eq!(report.created, 2);
        assert_eq!(report.merged_into_existing, 1);
        assert_eq!(semex.store().class_count(c_person), before + 1);
        // The new person is searchable immediately.
        assert_eq!(semex.search("carol", 5).len(), 1);
    }

    #[test]
    fn integrate_rejects_hopeless_tables() {
        let mut semex = demo();
        assert!(semex
            .integrate("junk", "qty,sku\n1,AB\n")
            .unwrap()
            .is_none());
        assert!(semex.integrate("junk", "not a csv").unwrap().is_none());
    }

    #[test]
    fn compacted_snapshot_is_smaller_and_equivalent() {
        let semex = demo();
        let dir = std::env::temp_dir().join(format!("semex-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let full = dir.join("full.json");
        let compact = dir.join("compact.json");
        semex.save(&full).unwrap();
        semex.save_compacted(&compact).unwrap();
        let full_len = std::fs::metadata(&full).unwrap().len();
        let compact_len = std::fs::metadata(&compact).unwrap().len();
        assert!(compact_len < full_len, "{compact_len} < {full_len}");
        let restored = Semex::load(&compact, SemexConfig::default()).unwrap();
        assert_eq!(
            restored.store().object_count(),
            semex.store().object_count()
        );
        assert_eq!(restored.store().alias_count(), 0);
        assert_eq!(
            restored.search("reconciliation", 5).len(),
            semex.search("reconciliation", 5).len()
        );
        std::fs::remove_file(&full).ok();
        std::fs::remove_file(&compact).ok();
    }

    #[test]
    fn snapshot_roundtrip() {
        let semex = demo();
        let dir = std::env::temp_dir().join(format!("semex-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        semex.save(&path).unwrap();
        let restored = Semex::load(&path, SemexConfig::default()).unwrap();
        assert_eq!(
            restored.store().object_count(),
            semex.store().object_count()
        );
        assert_eq!(restored.search("reconciliation", 5).len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restored_platform_reports_itself_as_restored() {
        let semex = demo();
        assert!(!semex.report().restored, "a built platform is not restored");
        let dir = std::env::temp_dir().join(format!("semex-restored-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.json");
        semex.save(&path).unwrap();
        let restored = Semex::load(&path, SemexConfig::default()).unwrap();
        assert!(restored.report().restored);
        assert!(restored.report().extraction.is_empty());
        assert_eq!(restored.report().indexed, semex.report().indexed);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn durable_platform_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("semex-durable-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal_cfg = JournalConfig {
            fsync: false,
            ..JournalConfig::default()
        };
        let (mut durable, report) =
            Semex::open_durable_with(&dir, SemexConfig::default(), journal_cfg.clone()).unwrap();
        assert!(report.initialized);
        durable
            .ingest(crate::SourceSpec::Mbox {
                name: "inbox".into(),
                content: "From: Xin Dong <luna@cs.example.edu>\nTo: alon@cs.example.edu\nSubject: demo plan\n\nhi".into(),
            })
            .unwrap();
        let committed = durable.commit().unwrap();
        assert!(committed > 0);
        let objects = durable.store().object_count();
        assert_eq!(durable.search("demo", 5).len(), 1);
        drop(durable);

        let (reopened, report) =
            Semex::open_durable_with(&dir, SemexConfig::default(), journal_cfg).unwrap();
        assert!(!report.initialized);
        assert!(report.damage.is_none(), "{report:?}");
        assert_eq!(reopened.store().object_count(), objects);
        assert!(reopened.report().restored);
        // The keyword index is rebuilt over the recovered store.
        assert_eq!(reopened.search("demo", 5).len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn into_durable_adopts_a_built_platform() {
        let dir = std::env::temp_dir().join(format!("semex-adopt-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal_cfg = JournalConfig {
            fsync: false,
            ..JournalConfig::default()
        };
        let built = demo();
        let objects = built.store().object_count();
        let durable = built.into_durable(&dir, journal_cfg.clone()).unwrap();
        assert_eq!(durable.store().object_count(), objects);
        drop(durable);

        // The built state was snapshotted: a plain reopen recovers it.
        let (reopened, _) =
            Semex::open_durable_with(&dir, SemexConfig::default(), journal_cfg.clone()).unwrap();
        assert_eq!(reopened.store().object_count(), objects);
        assert_eq!(reopened.search("reconciliation", 5).len(), 1);
        drop(reopened);

        // Adopting into a directory that already holds a journal is refused.
        assert!(demo().into_durable(&dir, journal_cfg).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn permanent_journal_failure_degrades_to_read_only() {
        use semex_journal::{FaultIo, FaultPlan};
        let dir = std::env::temp_dir().join(format!("semex-degraded-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let journal_cfg = JournalConfig {
            retry_backoff: std::time::Duration::ZERO,
            ..JournalConfig::default()
        };
        let io = FaultIo::new(FaultPlan::None);
        let (mut durable, report) = Semex::open_durable_io(
            &dir,
            SemexConfig::default(),
            journal_cfg.clone(),
            std::sync::Arc::new(io.clone()),
        )
        .unwrap();
        assert!(report.initialized);
        durable
            .ingest(crate::SourceSpec::Mbox {
                name: "inbox".into(),
                content: "From: Xin Dong <luna@cs.example.edu>\nTo: alon@cs.example.edu\nSubject: kickoff\n\nhi".into(),
            })
            .unwrap();
        durable.commit().unwrap();

        // More mutations land in memory, then the disk fills mid-commit.
        durable
            .ingest(crate::SourceSpec::Mbox {
                name: "inbox-2".into(),
                content: "From: Carol Reyes <carol@z.net>\nTo: luna@cs.example.edu\nSubject: zanzibar\n\nbye".into(),
            })
            .unwrap();
        let backlog = durable.pending_events();
        assert!(backlog > 0);
        io.set_plan(FaultPlan::DiskFull { at: io.op_count() });
        let err = durable.commit().unwrap_err();
        assert!(!err.is_transient(), "ENOSPC is permanent: {err}");
        assert!(
            durable.journal().unwrap().is_wedged(),
            "failed rollback wedges"
        );
        assert!(durable.degraded().is_some(), "platform must degrade");
        assert_eq!(durable.pending_events(), backlog, "backlog preserved");

        // Reads are still served from the in-memory state, un-durable
        // mutations included.
        assert_eq!(durable.search("kickoff", 5).len(), 1);
        assert_eq!(durable.search("zanzibar", 5).len(), 1);
        assert!(!durable
            .view(durable.search("carol", 1)[0].object)
            .attrs
            .is_empty());

        // Every mutating path is rejected with SemexError::Degraded.
        let spec = crate::SourceSpec::Mbox {
            name: "inbox-3".into(),
            content: "From: a@b.c\nSubject: x\n\nx".into(),
        };
        match durable.ingest(spec) {
            Err(crate::SemexError::Degraded { .. }) => {}
            other => panic!("ingest while degraded: {other:?}"),
        }
        match durable.integrate("t", "name,email\nA,a@b.c\n") {
            Err(crate::SemexError::Degraded { .. }) => {}
            other => panic!("integrate while degraded: {other:?}"),
        }
        match durable.assert_same(ObjectId(0), ObjectId(1)) {
            Err(crate::SemexError::Degraded { .. }) => {}
            other => panic!("assert_same while degraded: {other:?}"),
        }
        match durable.assert_distinct(ObjectId(0), ObjectId(1)) {
            Err(crate::SemexError::Degraded { .. }) => {}
            other => panic!("assert_distinct while degraded: {other:?}"),
        }

        // While the disk is still full, recovery fails and the platform
        // stays degraded with the backlog intact.
        assert!(durable.try_recover_journal().is_err());
        assert!(durable.degraded().is_some());
        assert_eq!(durable.pending_events(), backlog);

        // Space frees up: recovery repairs the journal, flushes the backlog
        // and lifts the degradation.
        io.clear_faults();
        let flushed = durable.try_recover_journal().unwrap();
        assert_eq!(flushed, backlog);
        assert!(durable.degraded().is_none());
        assert_eq!(durable.pending_events(), 0);

        // Mutations are accepted and journaled again.
        durable
            .ingest(crate::SourceSpec::Mbox {
                name: "inbox-3".into(),
                content: "From: a@b.c\nSubject: quetzal\n\nx".into(),
            })
            .unwrap();
        durable.commit().unwrap();
        drop(durable);

        // A fresh recovery sees every commit, including the flushed backlog.
        let (reopened, report) =
            Semex::open_durable_with(&dir, SemexConfig::default(), journal_cfg).unwrap();
        assert!(report.damage.is_none(), "{report:?}");
        for q in ["kickoff", "zanzibar", "quetzal"] {
            assert_eq!(reopened.search(q, 5).len(), 1, "{q}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_operations_without_a_journal_are_refused() {
        let mut semex = demo();
        assert!(semex.journal().is_none());
        semex.set_index_batching(true);
        semex
            .ingest(crate::SourceSpec::Mbox {
                name: "later".into(),
                content: "From: new@person.example\nSubject: zanzibar\n\nhi".into(),
            })
            .unwrap();
        assert_eq!(semex.pending_events(), 0, "nothing awaits a journal");
        // Commit still publishes: the index takes the batch.
        assert!(semex.commit().unwrap() > 0);
        assert_eq!(semex.search("zanzibar", 5).len(), 1);
        let refusals = [
            semex.compact().map(drop).unwrap_err(),
            semex.try_recover_journal().map(drop).unwrap_err(),
            semex.apply_replicated(0, &[]).map(drop).unwrap_err(),
        ];
        for err in refusals {
            assert!(matches!(err, JournalError::Invalid { .. }), "{err}");
            assert!(err.to_string().contains("needs a journal"), "{err}");
        }
        assert!(semex.degraded().is_none(), "a refusal degrades nothing");
    }

    #[test]
    fn ingest_grows_and_reconciles() {
        let mut semex = demo();
        let c_person = semex.store().model().class(class::PERSON).unwrap();
        let before = semex.store().class_count(c_person);
        let stats = semex
            .ingest(crate::SourceSpec::Mbox {
                name: "new-mail".into(),
                content: "From: Xin Dong <luna@cs.example.edu>\nTo: Carol Reyes <carol@z.net>\nSubject: welcome\n\nhi".into(),
            })
            .unwrap();
        assert_eq!(stats.records, 1);
        // Xin Dong reconciles into the existing object; Carol is new.
        assert_eq!(semex.store().class_count(c_person), before + 1);
        assert_eq!(semex.search("carol", 3).len(), 1, "index refreshed");
        // Bad input surfaces as an error with the source name.
        let err = semex
            .ingest(crate::SourceSpec::Bibtex {
                name: "broken".into(),
                content: "@article{x, title={oops".into(),
            })
            .unwrap_err();
        assert!(err.to_string().contains("broken"));
    }

    #[test]
    fn explain_groups_facts_by_source() {
        let semex = demo();
        let dong = semex.search("class:Person dong", 1)[0].object;
        let facts = semex.explain(dong);
        assert!(!facts.is_empty());
        let sources: std::collections::HashSet<&str> =
            facts.iter().map(|(s, _)| s.as_str()).collect();
        assert!(sources.contains("library"), "{sources:?}");
        assert!(sources.contains("inbox"), "{sources:?}");
        assert!(facts.iter().any(|(_, f)| f.contains("AuthoredBy")));
        assert!(facts.iter().any(|(_, f)| f.contains("Sender")));
    }

    #[test]
    fn feedback_constraints_stick() {
        let mut semex = demo();
        // Assert the reconciled Dong and Halevy are the same (a wrong but
        // legal user action): they merge and the constraint persists.
        let dong = semex.search("class:Person dong", 1)[0].object;
        let halevy = semex.search("class:Person halevy", 1)[0].object;
        semex.assert_same(dong, halevy).unwrap();
        assert_eq!(semex.store().resolve(dong), semex.store().resolve(halevy));
        assert!(
            !semex.assert_distinct(dong, halevy).unwrap(),
            "cannot split a merge"
        );

        // A cannot-link on distinct objects survives future ingests.
        let c_person = semex.store().model().class(class::PERSON).unwrap();
        let objs: Vec<_> = semex.store().objects_of_class(c_person).take(2).collect();
        if objs.len() == 2 {
            assert!(semex.assert_distinct(objs[0], objs[1]).unwrap());
            assert_eq!(semex.config().recon.cannot_link.len(), 1);
        }
    }

    #[test]
    fn incremental_refresh_matches_full_rebuild() {
        let mut semex = demo();
        semex
            .integrate(
                "attendees",
                "name,email\nXin Dong,luna@cs.example.edu\nCarol Reyes,carol@z.net\n",
            )
            .unwrap()
            .unwrap();
        semex
            .ingest(crate::SourceSpec::Mbox {
                name: "new-mail".into(),
                content: "From: Carol Reyes <carol@z.net>\nTo: luna@cs.example.edu\nSubject: thanks\n\nbye".into(),
            })
            .unwrap();
        let dong = semex.search("class:Person dong", 1)[0].object;
        let halevy = semex.search("class:Person halevy", 1)[0].object;
        semex.assert_same(dong, halevy).unwrap();
        // Every refresh site above was incremental; the index must still be
        // indistinguishable from a from-scratch build.
        let rebuilt = SearchIndex::build(semex.store());
        assert_eq!(semex.index().doc_count(), rebuilt.doc_count());
        assert_eq!(semex.index().avg_doc_len(), rebuilt.avg_doc_len());
        for q in [
            "carol",
            "reconciliation demo",
            "class:Person dong",
            "thanks",
        ] {
            assert_eq!(
                semex.index().search_str(semex.store(), q, 10),
                rebuilt.search_str(semex.store(), q, 10),
                "{q}"
            );
        }
        // Pruned and exhaustive agree through the facade too.
        assert_eq!(
            semex.search("reconciliation demo", 5),
            semex.search_exhaustive("reconciliation demo", 5)
        );
    }

    #[test]
    fn batched_mutations_refresh_index_once() {
        let mut semex = demo();
        let base = semex.index().apply_calls();
        semex.set_index_batching(true);
        for (i, token) in ["quokka", "axolotl", "pangolin"].iter().enumerate() {
            semex
                .ingest(crate::SourceSpec::Mbox {
                    name: format!("batch-{i}"),
                    content: format!("From: w{i}@batch.example\nSubject: {token}\n\nbody {token}"),
                })
                .unwrap();
        }
        assert_eq!(
            semex.index().apply_calls(),
            base,
            "no per-mutation index deltas while batching"
        );
        assert!(
            semex.flush_index() > 0,
            "events stay logged until published"
        );
        assert_eq!(
            semex.index().apply_calls(),
            base + 1,
            "one drain per published batch, not one per mutation"
        );
        assert_eq!(semex.flush_index(), 0, "nothing left to publish");
        for token in ["quokka", "axolotl", "pangolin"] {
            assert_eq!(semex.search(token, 5).len(), 1, "{token}");
        }
        // The batched deltas leave the index indistinguishable from a
        // from-scratch build.
        let rebuilt = SearchIndex::build(semex.store());
        assert_eq!(semex.index().doc_count(), rebuilt.doc_count());
        assert_eq!(semex.index().avg_doc_len(), rebuilt.avg_doc_len());

        // Turning batching off flushes implicitly.
        semex.set_index_batching(true);
        semex
            .ingest(crate::SourceSpec::Mbox {
                name: "batch-4".into(),
                content: "From: w4@batch.example\nSubject: capybara\n\nbody".into(),
            })
            .unwrap();
        semex.set_index_batching(false);
        assert_eq!(semex.index().apply_calls(), base + 2);
        assert_eq!(semex.search("capybara", 5).len(), 1);
    }

    #[test]
    fn snapshot_isolates_reads_from_later_writes() {
        let mut semex = demo();
        let snap = semex.snapshot();
        let before_objects = snap.store().object_count();
        assert_eq!(snap.search("reconciliation", 5).len(), 1);
        semex
            .ingest(crate::SourceSpec::Mbox {
                name: "later".into(),
                content: "From: new@person.example\nSubject: wombat\n\nhi".into(),
            })
            .unwrap();
        // The live platform sees the write; the snapshot never does.
        assert_eq!(semex.search("wombat", 5).len(), 1);
        assert!(snap.search("wombat", 5).is_empty());
        assert_eq!(snap.store().object_count(), before_objects);
        // Snapshot views and explanations match the live ones for
        // pre-existing objects.
        let dong = snap.search("class:Person dong", 1)[0].object;
        assert_eq!(snap.view(dong), semex.view(dong));
        assert_eq!(snap.explain(dong), semex.explain(dong));
        // A snapshot taken mid-batch folds the buffered events into its
        // own index copy without draining the master's buffer.
        semex.set_index_batching(true);
        semex
            .ingest(crate::SourceSpec::Mbox {
                name: "mid".into(),
                content: "From: mid@person.example\nSubject: numbat\n\nhi".into(),
            })
            .unwrap();
        let mid = semex.snapshot();
        assert_eq!(mid.search("numbat", 5).len(), 1, "snapshot is current");
        assert!(semex.search("numbat", 5).is_empty(), "master not published");
        assert!(semex.flush_index() > 0, "not drained");
        semex.set_index_batching(false);
    }

    #[test]
    fn stats_reflect_reconciled_store() {
        let semex = demo();
        let stats = semex.stats();
        assert!(stats.class(class::PERSON) >= 2);
        assert!(stats.aliases > 0, "reconciliation merged duplicates");
    }
}
