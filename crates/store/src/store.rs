//! The association database proper.

use crate::adjacency::{Dir, EdgeRecord};
use crate::events::EventLog;
use crate::{ChunkVec, Object, ObjectId, SourceId, SourceInfo, StoreEvent, Triple};
use semex_model::{AssocId, AttrId, ClassId, DomainModel, Value};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Errors raised by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The object id does not exist.
    UnknownObject(ObjectId),
    /// A triple's subject or object has the wrong class for the association.
    ClassMismatch {
        /// The association whose signature was violated.
        assoc: AssocId,
        /// The offending object.
        object: ObjectId,
    },
    /// An attribute value has the wrong kind for its attribute definition.
    WrongValueKind(AttrId),
    /// Attempted to merge an object with itself.
    SelfMerge(ObjectId),
    /// Attempted to merge objects of different classes.
    MergeClassMismatch(ObjectId, ObjectId),
    /// The class id is not in the domain model.
    UnknownClass(ClassId),
    /// The attribute id is not in the domain model.
    UnknownAttr(AttrId),
    /// The association id is not in the domain model.
    UnknownAssoc(AssocId),
    /// The source id was never registered.
    UnknownSource(SourceId),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownObject(o) => write!(f, "unknown object {o}"),
            StoreError::ClassMismatch { assoc, object } => {
                write!(
                    f,
                    "object {object} has the wrong class for association {assoc}"
                )
            }
            StoreError::WrongValueKind(a) => write!(f, "wrong value kind for attribute {a}"),
            StoreError::SelfMerge(o) => write!(f, "cannot merge {o} with itself"),
            StoreError::MergeClassMismatch(a, b) => {
                write!(f, "cannot merge {a} and {b}: different classes")
            }
            StoreError::UnknownClass(c) => write!(f, "unknown class {c}"),
            StoreError::UnknownAttr(a) => write!(f, "unknown attribute {a}"),
            StoreError::UnknownAssoc(a) => write!(f, "unknown association {a}"),
            StoreError::UnknownSource(s) => write!(f, "unknown source {s}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// The association database: objects + association triples + adjacency
/// indexes, bound to a [`DomainModel`].
///
/// Every large field is a [`ChunkVec`] (the model sits behind an `Arc`), so
/// a clone shares all of the store's chunks with the original and a write
/// copies only the chunks it lands in: a published snapshot costs O(1) to
/// take, and the writer pays only for what its batch touches.
#[derive(Debug, Clone)]
pub struct Store {
    model: Arc<DomainModel>,
    objects: ChunkVec<Object>,
    by_class: Vec<ChunkVec<ObjectId>>,
    triples: ChunkVec<Triple>,
    /// One edge record per object slot: its forward and inverse runs.
    edges: ChunkVec<EdgeRecord>,
    /// Distinct live edges per association.
    assoc_edges: Vec<usize>,
    /// Distinct live edges in all.
    edge_total: usize,
    sources: ChunkVec<SourceInfo>,
    live_objects: usize,
    /// The sequenced event log; it records while enabled (see
    /// [`Store::enable_events`]). Never snapshotted.
    pub(crate) recorder: EventLog,
}

impl Store {
    /// An empty store over the given domain model.
    pub fn new(model: DomainModel) -> Self {
        let mut store = Store {
            model: Arc::new(model),
            objects: ChunkVec::new(),
            by_class: Vec::new(),
            triples: ChunkVec::new(),
            edges: ChunkVec::new(),
            assoc_edges: Vec::new(),
            edge_total: 0,
            sources: ChunkVec::new(),
            live_objects: 0,
            recorder: EventLog::default(),
        };
        store.grow_indexes();
        store
    }

    /// An empty store over the built-in SEMEX vocabulary.
    pub fn with_builtin_model() -> Self {
        Store::new(DomainModel::builtin())
    }

    /// The domain model this store is bound to.
    pub fn model(&self) -> &DomainModel {
        &self.model
    }

    /// Extend the domain model in place (the model is malleable; the store
    /// grows its per-class / per-assoc indexes to match). The model is
    /// copied first if a clone of the store still shares it.
    pub fn model_mut(&mut self) -> &mut DomainModel {
        Arc::make_mut(&mut self.model)
    }

    /// Re-sync index widths after the model gained classes/associations via
    /// [`Store::model_mut`]. When event recording is enabled this emits a
    /// [`StoreEvent::SyncModel`] carrying the full post-extension model, so
    /// call it once per batch of model edits.
    pub fn sync_model(&mut self) {
        self.grow_indexes();
        if self.recorder.on {
            let model = DomainModel::clone(&self.model);
            self.record(StoreEvent::SyncModel { model });
        }
    }

    /// Widen the per-class / per-assoc indexes to the model's counts.
    fn grow_indexes(&mut self) {
        self.by_class.resize_with(
            self.model.class_count().max(self.by_class.len()),
            ChunkVec::new,
        );
        let assocs = self.model.assoc_count().max(self.assoc_edges.len());
        self.assoc_edges.resize(assocs, 0);
    }

    /// Internal: swap in a replacement model (journal replay of
    /// [`StoreEvent::SyncModel`]) and widen the indexes to match.
    pub(crate) fn replace_model(&mut self, model: DomainModel) {
        self.model = Arc::new(model);
        self.grow_indexes();
    }

    // ------------------------------------------------------------------
    // Sources
    // ------------------------------------------------------------------

    /// Register a provenance source.
    pub fn register_source(&mut self, info: SourceInfo) -> SourceId {
        let id = SourceId(self.sources.len() as u32);
        if self.recorder.on {
            let info = info.clone();
            self.record(StoreEvent::RegisterSource { info });
        }
        self.sources.push(info);
        id
    }

    /// Metadata of a registered source.
    pub fn source(&self, id: SourceId) -> Option<&SourceInfo> {
        self.sources.get(id.0 as usize)
    }

    /// All registered sources.
    pub fn sources(&self) -> impl Iterator<Item = (SourceId, &SourceInfo)> {
        self.sources
            .iter()
            .enumerate()
            .map(|(i, s)| (SourceId(i as u32), s))
    }

    // ------------------------------------------------------------------
    // Objects
    // ------------------------------------------------------------------

    /// Create a fresh object of the given class.
    pub fn add_object(&mut self, class: ClassId) -> ObjectId {
        let id = ObjectId(self.objects.len() as u64);
        self.objects.push(Object::new(class));
        self.edges.push(EdgeRecord::default());
        self.by_class[class.index()].push(id);
        self.live_objects += 1;
        self.record(StoreEvent::AddObject { class });
        id
    }

    /// Follow alias chains to the live object an id denotes.
    pub fn resolve(&self, mut id: ObjectId) -> ObjectId {
        while let Some(next) = self.objects[id.index()].merged_into {
            id = next;
        }
        id
    }

    /// The object behind an id (after alias resolution).
    pub fn object(&self, id: ObjectId) -> &Object {
        &self.objects[self.resolve(id).index()]
    }

    /// The raw object slot, without alias resolution (provenance queries).
    pub fn object_raw(&self, id: ObjectId) -> Option<&Object> {
        self.objects.get(id.index())
    }

    /// Class of an object.
    pub fn class_of(&self, id: ObjectId) -> ClassId {
        self.object(id).class
    }
    /// Add an attribute value (validated against the model's value kind).
    /// Returns true if the value was new.
    pub fn add_attr(
        &mut self,
        id: ObjectId,
        attr: AttrId,
        value: Value,
    ) -> Result<bool, StoreError> {
        if id.index() >= self.objects.len() {
            return Err(StoreError::UnknownObject(id));
        }
        if self.model.attr_def(attr).kind != value.kind() {
            return Err(StoreError::WrongValueKind(attr));
        }
        let recorded = if self.recorder.on {
            Some(value.clone())
        } else {
            None
        };
        let live = self.resolve(id);
        let added = self.objects[live.index()].add_attr(attr, value);
        if added {
            if let Some(value) = recorded {
                self.record(StoreEvent::AddAttr {
                    object: id,
                    attr,
                    value,
                });
            }
        }
        Ok(added)
    }

    /// Record a provenance source on an object.
    pub fn add_source_to(&mut self, id: ObjectId, source: SourceId) {
        let live = self.resolve(id);
        if self.objects[live.index()].add_source(source) {
            self.record(StoreEvent::AddSource { object: id, source });
        }
    }

    /// Live (non-alias) objects of a class.
    pub fn objects_of_class(&self, class: ClassId) -> impl Iterator<Item = ObjectId> + '_ {
        self.by_class[class.index()]
            .iter()
            .copied()
            .filter(move |id| !self.objects[id.index()].is_alias())
    }

    /// Number of live objects of a class.
    pub fn class_count(&self, class: ClassId) -> usize {
        self.objects_of_class(class).count()
    }

    /// All live object ids.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        (0..self.objects.len() as u64)
            .map(ObjectId)
            .filter(move |id| !self.objects[id.index()].is_alias())
    }

    /// Total number of live objects.
    pub fn object_count(&self) -> usize {
        self.live_objects
    }

    /// Total number of object slots including aliases.
    pub fn slot_count(&self) -> usize {
        self.objects.len()
    }

    /// The display label of an object: the *best* value of its class's
    /// label attribute — merged objects pool several spellings, so prefer
    /// the most informative one (most words, then the spelling that recurs,
    /// then insertion order) — falling back to the first string attribute,
    /// falling back to the id.
    pub fn label(&self, id: ObjectId) -> String {
        let id = self.resolve(id);
        let obj = &self.objects[id.index()];
        let class = self.model.class_def(obj.class);
        if let Some(a) = class.label_attr {
            let mut best: Option<&str> = None;
            let mut best_key = (0usize, 0usize);
            for s in obj.strs(a) {
                // Spelt-out words beat initials; ties keep the earliest.
                let words = s
                    .split_whitespace()
                    .filter(|w| w.trim_end_matches('.').chars().count() > 1)
                    .count();
                let key = (words, s.chars().count().min(64));
                if best.is_none() || key > best_key {
                    best = Some(s);
                    best_key = key;
                }
            }
            if let Some(s) = best {
                return s.to_owned();
            }
        }
        obj.attrs
            .iter()
            .find_map(|(_, v)| v.as_str().map(str::to_owned))
            .unwrap_or_else(|| id.to_string())
    }

    /// Find live objects of a class whose display label equals `label`
    /// exactly (linear scan over the class; labels are not indexed).
    pub fn find_by_label<'a>(
        &'a self,
        class: ClassId,
        label: &'a str,
    ) -> impl Iterator<Item = ObjectId> + 'a {
        self.objects_of_class(class)
            .filter(move |&o| self.label(o) == label)
    }

    // ------------------------------------------------------------------
    // Triples
    // ------------------------------------------------------------------

    /// Assert an association triple. The subject and object must be live
    /// instances of the association's domain and range classes. Duplicate
    /// facts (same resolved subject/assoc/object) are suppressed.
    /// Returns true if the fact was new.
    pub fn add_triple(
        &mut self,
        subject: ObjectId,
        assoc: AssocId,
        object: ObjectId,
        source: SourceId,
    ) -> Result<bool, StoreError> {
        if subject.index() >= self.objects.len() {
            return Err(StoreError::UnknownObject(subject));
        }
        if object.index() >= self.objects.len() {
            return Err(StoreError::UnknownObject(object));
        }
        let (raw_subject, raw_object) = (subject, object);
        let subject = self.resolve(subject);
        let object = self.resolve(object);
        let def = self.model.assoc_def(assoc);
        if self.objects[subject.index()].class != def.domain {
            return Err(StoreError::ClassMismatch {
                assoc,
                object: subject,
            });
        }
        if self.objects[object.index()].class != def.range {
            return Err(StoreError::ClassMismatch { assoc, object });
        }
        if !self.link(subject, assoc, object) {
            return Ok(false);
        }
        self.triples
            .push(Triple::new(subject, assoc, object, source));
        self.record(StoreEvent::AddTriple {
            subject: raw_subject,
            assoc,
            object: raw_object,
            source,
        });
        Ok(true)
    }

    /// Add the live edge `subject --assoc--> object` to both endpoints'
    /// records and the counts; false when it is already there.
    fn link(&mut self, subject: ObjectId, assoc: AssocId, object: ObjectId) -> bool {
        if !self.edges[subject.index()].insert(assoc, Dir::Out, object) {
            return false;
        }
        self.edges[object.index()].insert(assoc, Dir::In, subject);
        self.count_edges(assoc, 1);
        true
    }

    /// Adjust the live edge counts of `assoc` by `delta`.
    fn count_edges(&mut self, assoc: AssocId, delta: isize) {
        let n = &mut self.assoc_edges[assoc.index()];
        *n = n
            .checked_add_signed(delta)
            .expect("edge counts never go negative");
        self.edge_total = self
            .edge_total
            .checked_add_signed(delta)
            .expect("edge counts never go negative");
    }

    /// Objects reachable from `subject` over `assoc` (forward direction).
    pub fn neighbors(&self, subject: ObjectId, assoc: AssocId) -> &[ObjectId] {
        let subject = self.resolve(subject);
        self.edges[subject.index()].run(assoc, Dir::Out)
    }

    /// Subjects pointing at `object` over `assoc` (inverse direction).
    pub fn inverse_neighbors(&self, object: ObjectId, assoc: AssocId) -> &[ObjectId] {
        let object = self.resolve(object);
        self.edges[object.index()].run(assoc, Dir::In)
    }

    /// All triples, with subject/object resolved through merges. The same
    /// fact is reported once per original provenance record.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.triples.iter().map(move |t| Triple {
            subject: self.resolve(t.subject),
            assoc: t.assoc,
            object: self.resolve(t.object),
            source: t.source,
        })
    }

    /// Raw triples as extracted (pre-merge ids), for provenance.
    pub fn triples_raw(&self) -> &ChunkVec<Triple> {
        &self.triples
    }

    /// Number of distinct live edges of an association type. O(1).
    pub fn assoc_count(&self, assoc: AssocId) -> usize {
        self.assoc_edges[assoc.index()]
    }

    /// Total number of distinct live edges. O(1).
    pub fn edge_count(&self) -> usize {
        self.edge_total
    }

    // ------------------------------------------------------------------
    // Merging
    // ------------------------------------------------------------------

    /// Merge `loser` into `winner`: pool attributes and provenance, re-point
    /// every edge of `loser` to `winner` (deduplicating), and leave `loser`
    /// behind as an alias so stale ids keep resolving. Touches the edge
    /// records of the loser and of its neighbours only.
    pub fn merge(&mut self, winner: ObjectId, loser: ObjectId) -> Result<(), StoreError> {
        let winner = self.resolve(winner);
        let loser = self.resolve(loser);
        if winner == loser {
            return Err(StoreError::SelfMerge(winner));
        }
        if self.objects[winner.index()].class != self.objects[loser.index()].class {
            return Err(StoreError::MergeClassMismatch(winner, loser));
        }

        // Pool attributes and sources.
        let taken = &mut self.objects[loser.index()];
        let attrs = std::mem::take(&mut taken.attrs);
        let sources = std::mem::take(&mut taken.sources);
        let kept = &mut self.objects[winner.index()];
        for (a, v) in attrs {
            kept.add_attr(a, v);
        }
        for s in sources {
            kept.add_source(s);
        }

        // Re-point adjacency, association type by association type.
        for assoc in self.edges[loser.index()].assocs() {
            // Outgoing edges of the loser.
            let outs = self.edges[loser.index()].take(assoc, Dir::Out);
            self.count_edges(assoc, -(outs.len() as isize));
            for target in outs {
                let target = self.resolve(target);
                if self.edges[winner.index()].insert(assoc, Dir::Out, target) {
                    self.count_edges(assoc, 1);
                }
                let inc = &mut self.edges[target.index()];
                inc.remove(assoc, Dir::In, loser);
                inc.insert(assoc, Dir::In, winner);
            }
            // Incoming edges of the loser.
            for src in self.edges[loser.index()].take(assoc, Dir::In) {
                let src = self.resolve(src);
                let outs = &mut self.edges[src.index()];
                let removed = outs.remove(assoc, Dir::Out, loser);
                let added = outs.insert(assoc, Dir::Out, winner);
                self.count_edges(assoc, isize::from(added) - isize::from(removed));
                self.edges[winner.index()].insert(assoc, Dir::In, src);
            }
        }

        self.objects[loser.index()].merged_into = Some(winner);
        self.live_objects -= 1;
        self.record(StoreEvent::Merge { winner, loser });
        Ok(())
    }

    /// Apply a batch of merges given as `(winner, loser)` pairs; pairs whose
    /// endpoints already resolve to the same object are skipped.
    pub fn merge_all(&mut self, pairs: &[(ObjectId, ObjectId)]) -> Result<usize, StoreError> {
        let mut applied = 0;
        for &(w, l) in pairs {
            if self.resolve(w) == self.resolve(l) {
                continue;
            }
            self.merge(w, l)?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Number of alias slots (objects consumed by merges).
    pub fn alias_count(&self) -> usize {
        self.objects.len() - self.live_objects
    }

    /// Produce a compacted copy of the store: alias slots left behind by
    /// merges are dropped, live objects are renumbered densely, and triples
    /// are rewritten to the new ids (duplicates collapsing onto one fact
    /// keep the first provenance record). Returns the new store and the
    /// old→new id mapping for live objects — ids held elsewhere (indexes,
    /// UIs) must be translated through it.
    ///
    /// After heavy reconciliation roughly a third of the slots are aliases;
    /// compaction shrinks snapshots accordingly.
    pub fn compacted(&self) -> (Store, HashMap<ObjectId, ObjectId>) {
        let mut new_store = Store::new(self.model().clone());
        for (_, info) in self.sources() {
            new_store.register_source(info.clone());
        }
        let mut mapping: HashMap<ObjectId, ObjectId> = HashMap::new();
        for old_id in self.objects() {
            let obj = self.object(old_id);
            let new_id = new_store.add_object(obj.class);
            let new_obj = &mut new_store.objects[new_id.index()];
            new_obj.attrs = obj.attrs.clone();
            new_obj.sources = obj.sources.clone();
            mapping.insert(old_id, new_id);
        }
        for t in self.triples.iter() {
            let s = mapping[&self.resolve(t.subject)];
            let o = mapping[&self.resolve(t.object)];
            if new_store.link(s, t.assoc, o) {
                new_store.triples.push(Triple::new(s, t.assoc, o, t.source));
            }
        }
        (new_store, mapping)
    }

    /// Internal accessors for snapshotting.
    #[allow(clippy::type_complexity)]
    pub(crate) fn parts(
        &self,
    ) -> (
        &DomainModel,
        &ChunkVec<Object>,
        &ChunkVec<Triple>,
        &ChunkVec<SourceInfo>,
    ) {
        (&self.model, &self.objects, &self.triples, &self.sources)
    }

    /// Internal constructor for snapshot loading: rebuilds the per-class
    /// index, the edge records and the counts from the objects and the raw
    /// triples.
    pub(crate) fn from_parts(
        model: DomainModel,
        objects: Vec<Object>,
        triples: Vec<Triple>,
        sources: Vec<SourceInfo>,
    ) -> Self {
        let mut s = Store::new(model);
        let mut by_class = vec![Vec::new(); s.by_class.len()];
        for (i, obj) in objects.iter().enumerate() {
            by_class[obj.class.index()].push(ObjectId(i as u64));
        }
        s.by_class = by_class.into_iter().map(ChunkVec::from_iter).collect();
        s.live_objects = objects.iter().filter(|o| !o.is_alias()).count();
        let mut edges = vec![EdgeRecord::default(); objects.len()];
        s.objects = objects.into_iter().collect();
        s.sources = sources.into_iter().collect();
        for t in &triples {
            let subject = s.resolve(t.subject);
            let object = s.resolve(t.object);
            if edges[subject.index()].insert(t.assoc, Dir::Out, object) {
                edges[object.index()].insert(t.assoc, Dir::In, subject);
                s.count_edges(t.assoc, 1);
            }
        }
        s.edges = edges.into_iter().collect();
        s.triples = triples.into_iter().collect();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_model::names::{assoc, attr, class};

    fn setup() -> (Store, ClassId, ClassId, AssocId, AttrId, SourceId) {
        let mut st = Store::with_builtin_model();
        let person = st.model().class(class::PERSON).unwrap();
        let publication = st.model().class(class::PUBLICATION).unwrap();
        let authored = st.model().assoc(assoc::AUTHORED_BY).unwrap();
        let name = st.model().attr(attr::NAME).unwrap();
        let src = st.register_source(SourceInfo::new("test", crate::SourceKind::Synthetic));
        (st, person, publication, authored, name, src)
    }

    #[test]
    fn objects_and_attrs() {
        let (mut st, person, _, _, name, src) = setup();
        let p = st.add_object(person);
        assert!(st.add_attr(p, name, Value::from("Ann")).unwrap());
        assert!(!st.add_attr(p, name, Value::from("Ann")).unwrap());
        st.add_source_to(p, src);
        assert_eq!(st.object(p).first_str(name), Some("Ann"));
        assert_eq!(st.label(p), "Ann");
        // A later, more complete spelling becomes the label.
        st.add_attr(p, name, Value::from("Ann B. Smith")).unwrap();
        assert_eq!(st.label(p), "Ann B. Smith");
        st.add_attr(p, name, Value::from("A. Smith")).unwrap();
        assert_eq!(st.label(p), "Ann B. Smith", "initials never win");
        assert_eq!(st.class_count(person), 1);
    }

    #[test]
    fn wrong_value_kind_rejected() {
        let (mut st, person, _, _, name, _) = setup();
        let p = st.add_object(person);
        assert_eq!(
            st.add_attr(p, name, Value::from(3i64)),
            Err(StoreError::WrongValueKind(name))
        );
    }

    #[test]
    fn triples_validate_classes() {
        let (mut st, person, publication, authored, _, src) = setup();
        let p = st.add_object(person);
        let pubn = st.add_object(publication);
        assert!(st.add_triple(pubn, authored, p, src).unwrap());
        assert!(!st.add_triple(pubn, authored, p, src).unwrap());
        // Subject of the wrong class:
        assert!(matches!(
            st.add_triple(p, authored, p, src),
            Err(StoreError::ClassMismatch { .. })
        ));
        assert_eq!(st.neighbors(pubn, authored), &[p]);
        assert_eq!(st.inverse_neighbors(p, authored), &[pubn]);
        assert_eq!(st.assoc_count(authored), 1);
    }

    #[test]
    fn merge_pools_attrs_and_repoints_edges() {
        let (mut st, person, publication, authored, name, src) = setup();
        let p1 = st.add_object(person);
        let p2 = st.add_object(person);
        st.add_attr(p1, name, Value::from("A. Smith")).unwrap();
        st.add_attr(p2, name, Value::from("Ann Smith")).unwrap();
        let pub1 = st.add_object(publication);
        let pub2 = st.add_object(publication);
        st.add_triple(pub1, authored, p1, src).unwrap();
        st.add_triple(pub2, authored, p2, src).unwrap();

        st.merge(p1, p2).unwrap();
        assert_eq!(st.resolve(p2), p1);
        assert!(st.object_raw(p2).unwrap().is_alias());
        let names: Vec<_> = st.object(p1).strs(name).collect();
        assert_eq!(names, vec!["A. Smith", "Ann Smith"]);
        // Both publications now point at the winner.
        assert_eq!(st.neighbors(pub1, authored), &[p1]);
        assert_eq!(st.neighbors(pub2, authored), &[p1]);
        let mut inc = st.inverse_neighbors(p1, authored).to_vec();
        inc.sort();
        assert_eq!(inc, vec![pub1, pub2]);
        assert_eq!(st.class_count(person), 1);
        assert_eq!(st.alias_count(), 1);
        // Attribute writes through the stale id land on the winner.
        st.add_attr(p2, name, Value::from("Ann B. Smith")).unwrap();
        assert_eq!(st.object(p1).strs(name).count(), 3);
    }

    #[test]
    fn merge_dedups_shared_edges() {
        let (mut st, person, publication, authored, _, src) = setup();
        let p1 = st.add_object(person);
        let p2 = st.add_object(person);
        let pubn = st.add_object(publication);
        st.add_triple(pubn, authored, p1, src).unwrap();
        st.add_triple(pubn, authored, p2, src).unwrap();
        st.merge(p1, p2).unwrap();
        assert_eq!(st.neighbors(pubn, authored), &[p1]);
        assert_eq!(st.inverse_neighbors(p1, authored), &[pubn]);
        assert_eq!(st.assoc_count(authored), 1);
    }

    #[test]
    fn merge_errors() {
        let (mut st, person, publication, _, _, _) = setup();
        let p = st.add_object(person);
        let q = st.add_object(publication);
        assert_eq!(st.merge(p, p), Err(StoreError::SelfMerge(p)));
        assert_eq!(st.merge(p, q), Err(StoreError::MergeClassMismatch(p, q)));
    }

    #[test]
    fn merge_chain_resolves_transitively() {
        let (mut st, person, _, _, _, _) = setup();
        let a = st.add_object(person);
        let b = st.add_object(person);
        let c = st.add_object(person);
        st.merge(b, c).unwrap();
        st.merge(a, b).unwrap();
        assert_eq!(st.resolve(c), a);
        assert_eq!(st.object_count(), 1);
    }

    #[test]
    fn triples_iterator_resolves() {
        let (mut st, person, publication, authored, _, src) = setup();
        let p1 = st.add_object(person);
        let p2 = st.add_object(person);
        let pubn = st.add_object(publication);
        st.add_triple(pubn, authored, p2, src).unwrap();
        st.merge(p1, p2).unwrap();
        let ts: Vec<_> = st.triples().collect();
        assert_eq!(ts.len(), 1);
        assert_eq!(ts[0].object, p1);
    }

    #[test]
    fn live_model_extension_via_sync() {
        let (mut st, person, _, _, _, src) = setup();
        let p = st.add_object(person);
        // Extend the model while the store is live.
        let a_nick = st
            .model_mut()
            .add_attr(semex_model::AttrDef::new(
                "nickname",
                semex_model::ValueKind::Str,
            ))
            .unwrap();
        let badge = st
            .model_mut()
            .add_class(semex_model::ClassDef::new("Badge"))
            .unwrap();
        let wears = st
            .model_mut()
            .add_assoc(semex_model::AssocDef::new("Wears", person, badge, "WornBy"))
            .unwrap();
        st.sync_model();
        // The widened indexes accept instances of the new vocabulary.
        let b = st.add_object(badge);
        st.add_attr(p, a_nick, Value::from("Lu")).unwrap();
        st.add_triple(p, wears, b, src).unwrap();
        assert_eq!(st.neighbors(p, wears), &[b]);
        assert_eq!(st.class_count(badge), 1);
        // Snapshot round-trips the extended vocabulary and data.
        let st2 = Store::from_json(&st.to_json().unwrap()).unwrap();
        assert_eq!(st2.neighbors(p, wears), &[b]);
        assert_eq!(st2.model().attr("nickname"), Some(a_nick));
    }

    #[test]
    fn compaction_drops_aliases_and_preserves_graph() {
        let (mut st, person, publication, authored, name, src) = setup();
        let p1 = st.add_object(person);
        let p2 = st.add_object(person);
        st.add_attr(p1, name, Value::from("Ann")).unwrap();
        st.add_attr(p2, name, Value::from("A. Walker")).unwrap();
        let pb = st.add_object(publication);
        st.add_triple(pb, authored, p2, src).unwrap();
        st.merge(p1, p2).unwrap();

        let (compact, mapping) = st.compacted();
        assert_eq!(compact.slot_count(), 2, "alias slot dropped");
        assert_eq!(compact.object_count(), 2);
        assert_eq!(compact.alias_count(), 0);
        let new_p = mapping[&p1];
        let new_pb = mapping[&pb];
        assert_eq!(compact.neighbors(new_pb, authored), &[new_p]);
        assert_eq!(compact.object(new_p).strs(name).count(), 2);
        assert_eq!(compact.source(src).unwrap().name, "test");
        // The snapshot of the compacted store is smaller.
        assert!(compact.to_json().unwrap().len() < st.to_json().unwrap().len());
        // Only live ids appear in the mapping.
        assert!(!mapping.contains_key(&p2) || st.resolve(p2) == p1);
    }

    #[test]
    fn merge_all_skips_settled_pairs() {
        let (mut st, person, _, _, _, _) = setup();
        let a = st.add_object(person);
        let b = st.add_object(person);
        let c = st.add_object(person);
        let n = st.merge_all(&[(a, b), (b, c), (a, c)]).unwrap();
        assert_eq!(n, 2);
        assert_eq!(st.object_count(), 1);
    }
}
