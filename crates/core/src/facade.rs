//! The [`Semex`] facade: search, browse, integrate, inspect, persist.

use crate::pipeline::{BuildReport, SemexConfig};
use semex_extract::csv::{parse_csv, Table};
use semex_index::SearchIndex;
use semex_integrate::{import_rows, ImportReport, SchemaMatcher};
use semex_journal::{
    CompactionReport, DurableStore, Journal, JournalConfig, JournalError, JournalIo, RecoveryReport,
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

/// Resolve raw index hits to display form against a store.
fn results_of(store: &Store, hits: Vec<semex_index::Hit>) -> Vec<SearchResult> {
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

/// Assemble the full display view of one object against a store.
fn view_of(store: &Store, obj: ObjectId) -> ObjectView {
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

/// Group the asserted facts about one object by provenance source.
fn explain_of(store: &Store, obj: ObjectId) -> Vec<(String, String)> {
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

/// An immutable, self-contained copy of the queryable platform state: the
/// association store plus the keyword index, detached from the live
/// [`Semex`].
///
/// This is the unit of *snapshot isolation* the serving layer is built on:
/// the writer clones the master's state into a `Snapshot`, publishes it
/// behind an `Arc`, and any number of reader threads query it concurrently
/// — every read method takes `&self`, and a snapshot never observes a
/// mutation applied after it was taken.
#[derive(Debug, Clone)]
pub struct Snapshot {
    store: Store,
    index: SearchIndex,
}

impl Snapshot {
    /// The association database at snapshot time.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The keyword index at snapshot time.
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// Keyword search (pruned top-k evaluator); see [`Semex::search`].
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        results_of(&self.store, self.index.search_str(&self.store, query, k))
    }

    /// Keyword search through the exhaustive reference scorer.
    pub fn search_exhaustive(&self, query: &str, k: usize) -> Vec<SearchResult> {
        results_of(
            &self.store,
            self.index.search_str_exhaustive(&self.store, query, k),
        )
    }

    /// A full display view of one object; see [`Semex::view`].
    pub fn view(&self, obj: ObjectId) -> ObjectView {
        view_of(&self.store, obj)
    }

    /// Facts about an object grouped by provenance source; see
    /// [`Semex::explain`].
    pub fn explain(&self, obj: ObjectId) -> Vec<(String, String)> {
        explain_of(&self.store, obj)
    }

    /// Store statistics at snapshot time.
    pub fn stats(&self) -> StoreStats {
        StoreStats::compute(&self.store)
    }
}

/// The assembled SEMEX platform.
pub struct Semex {
    store: Store,
    index: SearchIndex,
    config: SemexConfig,
    report: BuildReport,
    /// Events already folded into the index but not yet journaled. Only
    /// populated when `retain_events` is set (durable mode); otherwise
    /// drained events are dropped after indexing.
    pending_events: Vec<StoreEvent>,
    retain_events: bool,
    /// When set, mutating paths leave store events buffered instead of
    /// folding them into the index per mutation; [`Semex::flush_index`]
    /// drains the whole batch in one [`SearchIndex::apply_events`] call.
    /// The serving layer's writer thread uses this so N coalesced writes
    /// cost one index refresh.
    batch_index: bool,
    /// `Some(cause)` when the platform is in degraded read-only mode after
    /// a permanent journal failure: mutations are rejected with
    /// [`crate::SemexError::Degraded`] until
    /// [`DurableSemex::try_recover_journal`] clears the condition.
    degraded: Option<String>,
    /// Reconciliation state kept current from the store's event stream, so
    /// an ingest reconciles in time proportional to its new references.
    /// Built on the first write that reconciles: a space that is only read
    /// holds none.
    recon: Option<Box<ReconState>>,
}

impl fmt::Debug for Semex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Semex")
            .field("objects", &self.store.object_count())
            .field("indexed", &self.index.doc_count())
            .finish_non_exhaustive()
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
            store,
            index,
            config,
            report,
            pending_events: Vec::new(),
            retain_events: false,
            batch_index: false,
            degraded: None,
            recon: None,
        }
    }

    /// Clone the queryable state into an immutable [`Snapshot`].
    ///
    /// The snapshot reflects every mutation applied so far (including
    /// event batches not yet flushed into the master's index: those are
    /// folded into the *snapshot's* index copy so it is always current),
    /// and never changes afterwards. This is what the serving layer
    /// publishes to reader threads after each write batch.
    pub fn snapshot(&self) -> Snapshot {
        let mut index = self.index.clone();
        // Don't drain the master's buffer — peeking keeps the pending
        // journal/flush bookkeeping untouched.
        let pending = self.store.peek_events();
        if !pending.is_empty() {
            index.apply_events(&self.store, pending);
        }
        Snapshot {
            store: self.store.clone(),
            index,
        }
    }

    /// Switch index-refresh batching on or off. While batching is on,
    /// mutating calls ([`Semex::ingest`], [`Semex::integrate`],
    /// [`Semex::assert_same`], …) leave their store events buffered and the
    /// master's keyword index goes stale; one [`Semex::flush_index`] call
    /// (or a durable [`DurableSemex::commit`]) folds the whole batch in at
    /// once. Turning batching *off* flushes implicitly, so the index is
    /// never silently stale outside a batch.
    pub fn set_index_batching(&mut self, on: bool) {
        self.batch_index = on;
        if !on {
            self.flush_index();
        }
    }

    /// Drain all buffered store events into the keyword index in a single
    /// delta application. A no-op when nothing is buffered; the batched
    /// write path calls this exactly once per published snapshot.
    pub fn flush_index(&mut self) {
        let events = self.store.take_events();
        if events.is_empty() {
            return;
        }
        if let Some(recon) = &mut self.recon {
            recon.drained(&self.store, &events);
        }
        self.index.apply_events(&self.store, &events);
        if self.retain_events {
            self.pending_events.extend(events);
        }
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

    /// Fold any recorded store mutations into the keyword index. Called by
    /// every mutating facade path; a no-op while index batching is on
    /// (the batch is drained once by [`Semex::flush_index`]). A full
    /// [`SearchIndex::build`] remains only as the restore/recovery fallback
    /// when no event stream exists.
    fn refresh_index(&mut self) {
        if self.batch_index {
            return;
        }
        self.flush_index();
    }

    /// The association database.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// The keyword index.
    pub fn index(&self) -> &SearchIndex {
        &self.index
    }

    /// What the build pipeline did.
    pub fn report(&self) -> &BuildReport {
        &self.report
    }

    /// The active configuration.
    pub fn config(&self) -> &SemexConfig {
        &self.config
    }

    /// Keyword search: top-`k` objects for a query string (supports the
    /// `class:Name` filter syntax). Runs the pruned top-k evaluator.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        results_of(&self.store, self.index.search_str(&self.store, query, k))
    }

    /// [`Semex::search`] through the exhaustive reference scorer. Returns
    /// identical results; kept as the oracle for verification and for
    /// benchmarking the pruned path against.
    pub fn search_exhaustive(&self, query: &str, k: usize) -> Vec<SearchResult> {
        results_of(
            &self.store,
            self.index.search_str_exhaustive(&self.store, query, k),
        )
    }

    /// A full display view of one object.
    pub fn view(&self, obj: ObjectId) -> ObjectView {
        view_of(&self.store, obj)
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
        let Some(mapping) = SchemaMatcher::new(&self.store).match_table(table) else {
            return Ok(None);
        };
        let score = mapping.score;
        let result = import_rows(&mut self.store, name, table, &mapping).map(|imported| {
            self.reconcile_new(&imported.created, Variant::Full);
            imported.report(&self.store)
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
        use semex_extract::{
            bibtex::extract_bibtex, email::extract_mbox, fswalk::extract_tree, ical::extract_ical,
            latex::extract_latex, vcard::extract_vcards, ExtractContext,
        };
        let name = match &spec {
            crate::SourceSpec::Mbox { name, .. }
            | crate::SourceSpec::Vcard { name, .. }
            | crate::SourceSpec::Bibtex { name, .. }
            | crate::SourceSpec::Latex { name, .. }
            | crate::SourceSpec::Ical { name, .. }
            | crate::SourceSpec::Directory { name, .. } => name.clone(),
        };
        let kind = match &spec {
            crate::SourceSpec::Mbox { .. } => semex_store::SourceKind::Email,
            crate::SourceSpec::Vcard { .. } => semex_store::SourceKind::Contacts,
            crate::SourceSpec::Bibtex { .. } => semex_store::SourceKind::Bibliography,
            crate::SourceSpec::Latex { .. } => semex_store::SourceKind::Latex,
            crate::SourceSpec::Ical { .. } => semex_store::SourceKind::Calendar,
            crate::SourceSpec::Directory { .. } => semex_store::SourceKind::FileSystem,
        };
        let sid = self
            .store
            .register_source(semex_store::SourceInfo::new(&name, kind));
        let first_new_slot = self.store.slot_count() as u64;
        let mut ctx = ExtractContext::new(&mut self.store, sid);
        let result = match &spec {
            crate::SourceSpec::Mbox { content, .. } => extract_mbox(content, &mut ctx),
            crate::SourceSpec::Vcard { content, .. } => extract_vcards(content, &mut ctx),
            crate::SourceSpec::Bibtex { content, .. } => extract_bibtex(content, &mut ctx),
            crate::SourceSpec::Latex { content, .. } => {
                extract_latex(content, &mut ctx).map(|(s, _)| s)
            }
            crate::SourceSpec::Ical { content, .. } => extract_ical(content, &mut ctx),
            crate::SourceSpec::Directory { root, .. } => extract_tree(root, &mut ctx),
        };
        let stats = result.map_err(|error| crate::SemexError::Extract {
            source: name,
            error,
        })?;
        if !self.config.skip_recon {
            // Incremental: only pairs touching the just-extracted
            // references are (re)considered — old-old pairs were settled by
            // the build-time run.
            let new_objects: Vec<ObjectId> = (first_new_slot..self.store.slot_count() as u64)
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
        let store = &mut self.store;
        self.recon
            .get_or_insert_with(|| Box::new(ReconState::new(store)))
            .reconcile(store, new_objects, variant, &self.config.recon);
    }

    /// Explain an object: its asserted facts grouped by provenance source —
    /// `(source name, rendered fact)` pairs. The demo's "where does SEMEX
    /// know this from?" affordance.
    pub fn explain(&self, obj: ObjectId) -> Vec<(String, String)> {
        explain_of(&self.store, obj)
    }

    /// User feedback: assert that two objects denote the same entity.
    /// Merges them immediately (pooling attributes and re-pointing edges),
    /// records the pair as a must-link constraint for future
    /// reconciliation runs, and refreshes the index.
    pub fn assert_same(&mut self, a: ObjectId, b: ObjectId) -> Result<(), crate::SemexError> {
        self.check_writable()?;
        self.config.recon.must_link.push((a, b));
        if self.store.resolve(a) != self.store.resolve(b) {
            self.store.merge(a, b).map_err(crate::SemexError::Store)?;
        }
        self.refresh_index();
        Ok(())
    }

    /// User feedback: assert that two objects denote different entities.
    /// Recorded as a cannot-link constraint respected by every future
    /// reconciliation run (ingest, integrate). Already-merged objects
    /// cannot be split — returns `false` in that case so the caller can
    /// tell the user.
    pub fn assert_distinct(&mut self, a: ObjectId, b: ObjectId) -> bool {
        if self.store.resolve(a) == self.store.resolve(b) {
            return false;
        }
        self.config.recon.cannot_link.push((a, b));
        true
    }

    /// Store statistics (the numbers the demo's status pane shows).
    pub fn stats(&self) -> StoreStats {
        StoreStats::compute(&self.store)
    }

    /// Snapshot the association database to a file.
    pub fn save(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        self.store.save(path)
    }

    /// Snapshot a *compacted* copy of the association database: merge-alias
    /// slots are dropped and objects renumbered, shrinking the file after
    /// heavy reconciliation. Note that object ids in the snapshot differ
    /// from this session's ids (the store itself is untouched).
    pub fn save_compacted(&self, path: &std::path::Path) -> Result<(), SnapshotError> {
        let (compact, _mapping) = self.store.compacted();
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
    /// directory on first use) and rebuild the keyword index. See
    /// [`DurableSemex`].
    pub fn open_durable(
        dir: impl AsRef<std::path::Path>,
        config: SemexConfig,
    ) -> Result<(DurableSemex, RecoveryReport), JournalError> {
        Semex::open_durable_with(dir, config, JournalConfig::default())
    }

    /// [`Semex::open_durable`] with explicit journal tunables.
    pub fn open_durable_with(
        dir: impl AsRef<std::path::Path>,
        config: SemexConfig,
        journal_config: JournalConfig,
    ) -> Result<(DurableSemex, RecoveryReport), JournalError> {
        let (durable, report) = DurableStore::open(dir, journal_config)?;
        Ok((Semex::assemble_durable(durable, config, &report), report))
    }

    /// [`Semex::open_durable_with`] through an explicit [`JournalIo`]
    /// implementation (fault injection, instrumentation).
    pub fn open_durable_io(
        dir: impl AsRef<std::path::Path>,
        config: SemexConfig,
        journal_config: JournalConfig,
        io: std::sync::Arc<dyn JournalIo>,
    ) -> Result<(DurableSemex, RecoveryReport), JournalError> {
        let (durable, report) = DurableStore::open_with_io(dir, journal_config, io)?;
        Ok((Semex::assemble_durable(durable, config, &report), report))
    }

    fn assemble_durable(
        durable: DurableStore,
        config: SemexConfig,
        report: &RecoveryReport,
    ) -> DurableSemex {
        let (store, journal) = durable.into_parts();
        let restored = Semex::restore_index(&store, &journal, report);
        // `fresh` = the sidecar already matches the recovered position
        // byte-for-byte, so re-writing it would only add an fsync to the
        // cold-open path the sidecar exists to make cheap.
        let fresh = matches!(restored, Some((_, true)));
        let index = restored
            .map(|(index, _)| index)
            .unwrap_or_else(|| SearchIndex::build_threaded(&store, config.recon.threads.max(1)));
        let indexed = index.doc_count();
        let mut semex = Semex::assemble(store, index, config, BuildReport::restored(indexed));
        semex.retain_events = true;
        let durable = DurableSemex { semex, journal };
        if !fresh {
            durable.refresh_index_sidecar();
        }
        durable
    }

    /// Try to restore the keyword index from the epoch's binary sidecar
    /// instead of rebuilding it from the store. The sidecar is *advisory*:
    /// it is used only when intact (CRC-verified) and stamped inside the
    /// recovered journal position — at `(epoch, seq)` with `seq` on the
    /// replayed prefix — and the journal tail past its seq is folded in
    /// with the same delta path live commits use (equivalence-tested
    /// against a scratch build). Anything else returns `None` and the
    /// caller rebuilds.
    fn restore_index(
        store: &Store,
        journal: &Journal,
        report: &RecoveryReport,
    ) -> Option<(SearchIndex, bool)> {
        let bytes = journal.read_index_sidecar().ok()??;
        let sidecar = SearchIndex::from_sidecar(&bytes).ok()?;
        if sidecar.epoch != report.epoch || sidecar.seq < report.base_seq {
            return None;
        }
        let already_folded = usize::try_from(sidecar.seq - report.base_seq).ok()?;
        let tail = report.replayed.get(already_folded..)?;
        let mut index = sidecar.index;
        if !tail.is_empty() {
            index.apply_events(store, tail);
        }
        Some((index, tail.is_empty()))
    }

    /// Put an already-built platform under journal protection: the
    /// directory is initialized with a snapshot of this platform's store
    /// (it must not already hold a journal), and every subsequent mutation
    /// is journaled. See [`DurableSemex`].
    pub fn into_durable(
        mut self,
        dir: impl AsRef<std::path::Path>,
        journal_config: JournalConfig,
    ) -> Result<DurableSemex, JournalError> {
        let dir = dir.as_ref();
        // The initial snapshot captures the store as-is; make sure no
        // recorded-but-unindexed (and thus unjournaled) events stay behind,
        // even when index batching is on.
        self.flush_index();
        let (durable, report) = DurableStore::open_with(dir, journal_config, self.store)?;
        if !report.initialized {
            return Err(JournalError::Invalid {
                dir: dir.to_path_buf(),
                reason: "directory already holds a journal; open it with open_durable instead"
                    .into(),
            });
        }
        let (store, journal) = durable.into_parts();
        self.store = store;
        self.store.enable_events();
        self.recon = None;
        self.retain_events = true;
        self.pending_events.clear();
        let durable = DurableSemex {
            semex: self,
            journal,
        };
        durable.refresh_index_sidecar();
        Ok(durable)
    }
}

/// A [`Semex`] platform whose store mutations are journaled to disk.
///
/// Dereferences to [`Semex`], so every query and mutation API is available
/// directly. Mutations (ingest, integrate, assert-same feedback, …) are
/// buffered as store events; call [`commit`](DurableSemex::commit) to make
/// them durable — after a crash, [`Semex::open_durable`] recovers exactly
/// the committed state. [`compact`](DurableSemex::compact) folds the
/// journal into a fresh snapshot when replay gets long.
pub struct DurableSemex {
    semex: Semex,
    journal: Journal,
}

impl fmt::Debug for DurableSemex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableSemex")
            .field("semex", &self.semex)
            .field("journal_dir", &self.journal.dir())
            .field("epoch", &self.journal.epoch())
            .field(
                "pending_events",
                &(self.semex.pending_events.len() + self.semex.store.pending_events()),
            )
            .finish()
    }
}

impl std::ops::Deref for DurableSemex {
    type Target = Semex;

    fn deref(&self) -> &Semex {
        &self.semex
    }
}

impl std::ops::DerefMut for DurableSemex {
    fn deref_mut(&mut self) -> &mut Semex {
        &mut self.semex
    }
}

impl DurableSemex {
    /// The underlying journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Store events buffered since the last commit: those already folded
    /// into the index plus any the store recorded since.
    pub fn pending_events(&self) -> usize {
        self.semex.pending_events.len() + self.semex.store.pending_events()
    }

    /// Append all buffered mutation events to the journal and fsync.
    /// Returns the number of events made durable. On failure the events are
    /// kept buffered (the index already reflects them), so a retry commits
    /// them. Transient failures were already retried inside the journal; a
    /// permanent failure (full disk, wedged log) additionally puts the
    /// platform into degraded read-only mode — see
    /// [`DurableSemex::try_recover_journal`].
    pub fn commit(&mut self) -> Result<usize, JournalError> {
        // Force a drain even under index batching: commit is the batch
        // boundary of the batched write path, and this is the single
        // `apply_events` call its mutations cost.
        self.semex.flush_index();
        let events = std::mem::take(&mut self.semex.pending_events);
        match self.journal.append_commit(&events) {
            Ok(n) => Ok(n),
            Err(e) => {
                self.semex.pending_events = events;
                if !e.is_transient() {
                    self.semex.degraded = Some(e.to_string());
                }
                Err(e)
            }
        }
    }

    /// Attempt to leave degraded read-only mode after the underlying
    /// condition (full disk, I/O failure) has been fixed: re-open the
    /// journal in place — repairing any damaged or un-sealed tail — then
    /// make the buffered mutation backlog durable again. On success the
    /// platform accepts mutations again; returns the number of backlog
    /// events committed. On failure the platform stays degraded, with the
    /// backlog still buffered, and the call can simply be retried.
    ///
    /// Also callable on a healthy platform, where it is just a reopen plus
    /// commit.
    pub fn try_recover_journal(&mut self) -> Result<usize, JournalError> {
        self.semex.flush_index();
        let durable_seq = self.journal.next_seq();
        self.journal.reopen()?;
        let mut events = std::mem::take(&mut self.semex.pending_events);
        if self.journal.next_seq() > durable_seq {
            // The failed commit actually reached the disk in full — only its
            // acknowledgment was lost — and recovery just replayed it.
            // Re-appending the backlog would duplicate those events.
            events.clear();
        }
        match self.journal.append_commit(&events) {
            Ok(n) => {
                self.semex.degraded = None;
                Ok(n)
            }
            Err(e) => {
                self.semex.pending_events = events;
                if !e.is_transient() {
                    self.semex.degraded = Some(e.to_string());
                }
                Err(e)
            }
        }
    }

    /// Apply one sealed commit batch shipped from a replication primary:
    /// journal it first (a follower's acknowledgment must never run ahead
    /// of its own durability), then fold the events into the store and
    /// the keyword index. Returns the new durable head — the journal's
    /// next sequence number, which is the epoch the batch is acked at.
    ///
    /// The facade must have no local mutations buffered: a follower that
    /// wrote locally has diverged from the primary, and interleaving its
    /// events with shipped ones would corrupt both histories. Such a call
    /// is refused with [`JournalError::Invalid`] and nothing is applied.
    /// An event that fails to apply after journaling is logical
    /// divergence; the platform degrades to read-only.
    pub fn apply_replicated(&mut self, events: &[StoreEvent]) -> Result<u64, JournalError> {
        if let Some(cause) = &self.semex.degraded {
            return Err(JournalError::Invalid {
                dir: self.journal.dir().to_path_buf(),
                reason: format!("follower is degraded: {cause}"),
            });
        }
        if self.semex.store.pending_events() > 0 || !self.semex.pending_events.is_empty() {
            return Err(JournalError::Invalid {
                dir: self.journal.dir().to_path_buf(),
                reason: "follower has local uncommitted mutations; it has diverged \
                         from the primary"
                    .into(),
            });
        }
        self.journal.append_commit(events)?;
        for event in events {
            if let Err(e) = self.semex.store.apply_event(event) {
                // The journal already sealed the batch but the store
                // cannot represent it: logical divergence. Degrade —
                // serving reads of a half-applied batch is worse than
                // refusing writes.
                let reason = format!("replicated event failed to apply: {e}");
                self.semex.degraded = Some(reason.clone());
                return Err(JournalError::Invalid {
                    dir: self.journal.dir().to_path_buf(),
                    reason,
                });
            }
        }
        self.semex.index.apply_events(&self.semex.store, events);
        if let Some(recon) = &mut self.semex.recon {
            recon.apply_events(&self.semex.store, events);
        }
        // `apply_event` replays outside the recorder, so nothing is
        // buffered — the batch is fully folded and fully durable.
        Ok(self.journal.next_seq())
    }

    /// Commit, then fold the whole journal into a new snapshot and delete
    /// the old epoch's files. The keyword index is also persisted as the
    /// new epoch's sidecar, so the next open skips the rebuild.
    pub fn compact(&mut self) -> Result<CompactionReport, JournalError> {
        self.commit()?;
        let report = self.journal.compact(&self.semex.store)?;
        self.refresh_index_sidecar();
        Ok(report)
    }

    /// Persist the current keyword index as the epoch's binary sidecar.
    /// Best-effort: the sidecar is advisory (any damage just costs the
    /// next open a rebuild), so failures are swallowed rather than failing
    /// the commit path that triggered it.
    fn refresh_index_sidecar(&self) {
        // Stamp the position the index actually reflects. The index has
        // folded every journaled event in (callers flush first), so that
        // is the journal's next sequence number.
        let bytes = self
            .semex
            .index
            .to_sidecar(self.journal.epoch(), self.journal.next_seq());
        self.journal.write_index_sidecar(&bytes).ok();
    }

    /// Detach the platform from its journal (for read-only use of a
    /// recovered space). Uncommitted events are lost; the journal files
    /// stay valid on disk.
    pub fn into_inner(self) -> Semex {
        self.semex
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
        assert!(durable.journal().is_wedged(), "failed rollback wedges");
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
        assert!(!semex.assert_distinct(dong, halevy), "cannot split a merge");

        // A cannot-link on distinct objects survives future ingests.
        let c_person = semex.store().model().class(class::PERSON).unwrap();
        let objs: Vec<_> = semex.store().objects_of_class(c_person).take(2).collect();
        if objs.len() == 2 {
            assert!(semex.assert_distinct(objs[0], objs[1]));
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
        assert!(semex.store().pending_events() > 0, "events stay buffered");
        semex.flush_index();
        assert_eq!(
            semex.index().apply_calls(),
            base + 1,
            "one drain per published batch, not one per mutation"
        );
        assert_eq!(semex.store().pending_events(), 0);
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
        let pending = semex.store().pending_events();
        assert!(pending > 0);
        let mid = semex.snapshot();
        assert_eq!(mid.search("numbat", 5).len(), 1, "snapshot is current");
        assert_eq!(semex.store().pending_events(), pending, "not drained");
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
