//! The persistent reconciliation state: what repeated incremental runs
//! need, kept current instead of rebuilt.
//!
//! A [`ReconState`] mirrors the blocking view of one store: each live
//! reference's class and blocking-key fingerprints, and a sorted
//! key → members index whose runs are the buckets, sizes included. It
//! follows the store through its [`StoreEvent`] stream — new objects, new
//! attribute values and merges re-read the rows they touch; a model sync
//! rebuilds the whole state — so an incremental run rebuilds nothing:
//!
//! 1. the new references probe only their own keys' buckets (the
//!    [`MAX_BUCKET`] rule applies to full bucket sizes, exactly as in
//!    [`crate::blocking::candidate_pairs`]);
//! 2. evidence neighbours are gathered only for candidate endpoints, and
//!    attributes are read (into a run-local [`crate::Vocab`]) only for the
//!    references a decision can pool: endpoints and constraint references;
//! 3. the unchanged decision procedure runs over a compact working table of
//!    those endpoints, their neighbours and every reference named in a
//!    feedback constraint, in the global order of a full table (class
//!    order, then slot order). The order is what makes the run
//!    byte-identical to rebuilding the table and filtering its pairs:
//!    pair order, shard order, union-find roots and member order all follow
//!    it.
//!
//! Attribute values stay in the store rather than in a second, parsed copy
//! here: the state lives as long as the space, and a copy would cost more
//! memory than re-reading the few rows a run pools.

use crate::blocking::{key_hashes, BlockingStats, MAX_BUCKET};
use crate::engine::{execute, Work};
use crate::refs::{kind_of, EvidencePlan, RefEntry, RefKind, RowAttrs, VocabBuilder};
use crate::{ReconConfig, ReconReport, Variant};
use semex_model::ClassId;
use semex_store::{ObjectId, Store, StoreEvent};
use std::time::Instant;

/// One live reference: its class and its distinct blocking-key
/// fingerprints (kept so the index entries can be removed when the row
/// changes).
#[derive(Debug)]
struct Row {
    class: ClassId,
    keys: Box<[u64]>,
}

/// Persistent reconciliation state over one store (see the module docs).
///
/// The state is a subscriber of the store's event log: it keeps the
/// sequence number of the first event it has not folded, and
/// [`ReconState::apply`] folds the events past that mark
/// ([`Store::events_since`]). [`ReconState::reconcile`] applies first, so a
/// run always sees the store as it is. The store must record events
/// ([`Store::enable_events`]) and keep them until the state has applied
/// them.
#[derive(Debug)]
pub struct ReconState {
    attrs: RowAttrs,
    /// Per class: comparator kind, `None` when the class is not
    /// reconcilable.
    kinds: Vec<Option<RefKind>>,
    plan: EvidencePlan,
    /// Per store slot: the row of a live reference (boxed: most slots hold
    /// messages, files and other non-references).
    rows: Vec<Option<Box<Row>>>,
    /// The bucket index: one `(class, key fingerprint, slot)` entry per
    /// distinct key of each live reference, sorted, so each bucket is one
    /// run and its length is the bucket's size.
    index: Vec<(u16, u64, u32)>,
    /// Live references per class.
    class_refs: Vec<usize>,
    /// Store slots accounted for (the next `AddObject` creates this one).
    slots: usize,
    /// The store event sequence folded so far: events before it are
    /// reflected.
    mark: u64,
}

/// Sort key of a reference in global table order: class, then slot.
fn order_key(class: ClassId, obj: ObjectId) -> u64 {
    (u64::from(class.0) << 48) | obj.0
}

/// The object a [`order_key`] names.
fn key_obj(key: u64) -> ObjectId {
    ObjectId(key & ((1 << 48) - 1))
}

/// A store slot as the bucket index stores it.
fn slot_u32(slot: usize) -> u32 {
    u32::try_from(slot).expect("store slots fit in 32 bits")
}

impl ReconState {
    /// Build the state from the store as it is now; its mark starts at the
    /// store's event head.
    pub fn new(store: &Store) -> ReconState {
        let model = store.model();
        let mut state = ReconState {
            attrs: RowAttrs::of(model),
            kinds: model.classes().map(|(c, _)| kind_of(model, c)).collect(),
            plan: EvidencePlan::new(model),
            rows: Vec::new(),
            index: Vec::new(),
            class_refs: vec![0; model.class_count()],
            slots: store.slot_count(),
            mark: store.event_head(),
        };
        state.rows.resize_with(store.slot_count(), || None);
        let slots: Vec<ObjectId> = (0..store.slot_count() as u64).map(ObjectId).collect();
        for (obj, row) in state.read(store, &slots) {
            state.class_refs[row.class.index()] += 1;
            let s = slot_u32(obj.index());
            state
                .index
                .extend(row.keys.iter().map(|&h| (row.class.0, h, s)));
            state.rows[obj.index()] = Some(row);
        }
        state.index.sort_unstable();
        state.index.shrink_to_fit();
        state
    }

    /// Fold the store's events past the mark: re-read the rows they
    /// changed, against the store as it is now.
    pub fn apply(&mut self, store: &Store) {
        let events = store.events_since(self.mark);
        self.mark = store.event_head();
        let mut dirty: Vec<ObjectId> = Vec::new();
        for event in events {
            match event {
                StoreEvent::AddObject { .. } => {
                    dirty.push(ObjectId(self.slots as u64));
                    self.slots += 1;
                }
                StoreEvent::AddAttr { object, .. } => dirty.push(store.resolve(*object)),
                StoreEvent::Merge { winner, loser } => {
                    dirty.push(*loser);
                    dirty.push(store.resolve(*winner));
                }
                StoreEvent::SyncModel { .. } => {
                    // Classes, attributes or evidence associations may have
                    // changed: start over from the store (which already
                    // reflects the rest of the batch).
                    *self = ReconState::new(store);
                    return;
                }
                StoreEvent::RegisterSource { .. }
                | StoreEvent::AddSource { .. }
                | StoreEvent::AddTriple { .. } => {}
            }
        }
        dirty.sort_unstable();
        dirty.dedup();
        // Drop the dirty rows, then re-read those that are live references.
        for &obj in &dirty {
            let slot = obj.index();
            if slot >= self.rows.len() {
                self.rows.resize_with(slot + 1, || None);
            }
            let Some(old) = self.rows[slot].take() else {
                continue;
            };
            self.class_refs[old.class.index()] -= 1;
            for &h in old.keys.iter() {
                if let Ok(i) = self.index.binary_search(&(old.class.0, h, slot_u32(slot))) {
                    self.index.remove(i);
                }
            }
        }
        for (obj, row) in self.read(store, &dirty) {
            self.class_refs[row.class.index()] += 1;
            for &h in row.keys.iter() {
                let entry = (row.class.0, h, slot_u32(obj.index()));
                let i = self.index.binary_search(&entry).unwrap_or_else(|i| i);
                self.index.insert(i, entry);
            }
            self.rows[obj.index()] = Some(row);
        }
    }

    /// The attribute entry of slot `obj` when it holds a live reference,
    /// its strings interned into `vocab`.
    fn entry(&self, store: &Store, vocab: &mut VocabBuilder, obj: ObjectId) -> Option<RefEntry> {
        let o = store.object_raw(obj)?;
        let kind = self.kinds.get(o.class.index()).copied().flatten()?;
        if o.is_alias() {
            return None;
        }
        Some(self.attrs.read(store, vocab, obj, o.class, kind))
    }

    /// The rows of those of `slots` that hold live references.
    fn read(&self, store: &Store, slots: &[ObjectId]) -> Vec<(ObjectId, Box<Row>)> {
        let mut vocab = VocabBuilder::default();
        let entries: Vec<RefEntry> = slots
            .iter()
            .filter_map(|&obj| self.entry(store, &mut vocab, obj))
            .collect();
        let vocab = vocab.finish();
        let mut keys = Vec::new();
        entries
            .into_iter()
            .map(|e| {
                key_hashes(&vocab, &e, &mut keys);
                let row = Row {
                    class: e.class,
                    keys: keys.as_slice().into(),
                };
                (e.obj, Box::new(row))
            })
            .collect()
    }

    /// The members of bucket `(class, h)`.
    fn bucket(&self, class: u16, h: u64) -> &[(u16, u64, u32)] {
        let lo = self.index.partition_point(|e| (e.0, e.1) < (class, h));
        let len = self.index[lo..].partition_point(|e| (e.0, e.1) == (class, h));
        &self.index[lo..lo + len]
    }

    fn row(&self, obj: ObjectId) -> Option<&Row> {
        self.rows.get(obj.index())?.as_deref()
    }

    /// Global order key of a live reference.
    fn key_of(&self, obj: ObjectId) -> Option<u64> {
        self.row(obj).map(|r| order_key(r.class, obj))
    }

    /// Candidate pairs touching `new_refs`, as ascending order-key pairs:
    /// each new reference pairs with every other member of each of its
    /// buckets that holds between 2 and [`MAX_BUCKET`] references.
    fn probe(&self, new_refs: &[ObjectId]) -> Vec<(u64, u64)> {
        let mut pairs = Vec::new();
        for &r in new_refs {
            let row = self.row(r).expect("new references are live rows");
            let kr = order_key(row.class, r);
            for &h in row.keys.iter() {
                let members = self.bucket(row.class.0, h);
                if members.len() < 2 || members.len() > MAX_BUCKET {
                    continue;
                }
                for &(_, _, m) in members {
                    if m as usize != r.index() {
                        let km = order_key(row.class, ObjectId(m.into()));
                        pairs.push((kr.min(km), kr.max(km)));
                    }
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Reconcile `new_objects` (references added since the last run)
    /// against the space and apply the merges: the persistent-state form of
    /// [`crate::reconcile_incremental`], with identical results.
    pub fn reconcile(
        &mut self,
        store: &mut Store,
        new_objects: &[ObjectId],
        variant: Variant,
        cfg: &ReconConfig,
    ) -> ReconReport {
        let start = Instant::now();
        self.apply(store);
        let st: &Store = store;
        let mut new_refs: Vec<ObjectId> = new_objects
            .iter()
            .filter_map(|&o| {
                st.object_raw(o)?; // unknown ids are ignored, not fatal
                let r = st.resolve(o);
                self.row(r).map(|_| r)
            })
            .collect();
        new_refs.sort_unstable();
        new_refs.dedup();
        let pairs = self.probe(&new_refs);

        // The working set: candidate endpoints with their neighbours, plus
        // both references of every constraint the run will resolve. Only
        // endpoints and constraint references can end up in a pooled
        // cluster, so only they need attributes.
        let mut ends: Vec<u64> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        ends.sort_unstable();
        ends.dedup();
        let links: Vec<Vec<(u32, Vec<u64>)>> = ends
            .iter()
            .map(|&k| {
                let obj = key_obj(k);
                let class = self.row(obj).expect("live").class;
                self.plan
                    .neighbors(st, obj, class, cfg.max_fanout, |o| self.key_of(o))
            })
            .collect();
        let mut pooled = ends.clone();
        let ref_key = |o: ObjectId| -> Option<u64> {
            st.object_raw(o)?;
            self.key_of(st.resolve(o))
        };
        for &(a, b) in cfg.must_link.iter().chain(&cfg.cannot_link) {
            if let (Some(ka), Some(kb)) = (ref_key(a), ref_key(b)) {
                pooled.extend([ka, kb]);
            }
        }
        pooled.sort_unstable();
        pooled.dedup();
        let mut keys: Vec<u64> = pooled.clone();
        for ns in links.iter().flatten() {
            keys.extend_from_slice(&ns.1);
        }
        keys.sort_unstable();
        keys.dedup();

        let pos = |k: u64| keys.binary_search(&k).expect("working-set key") as u32;
        let mut entries: Vec<RefEntry> = keys
            .iter()
            .map(|&k| RefEntry {
                obj: key_obj(k),
                ..RefEntry::default()
            })
            .collect();
        let mut vocab = VocabBuilder::default();
        for &k in &pooled {
            entries[pos(k) as usize] = self.entry(st, &mut vocab, key_obj(k)).expect("live");
        }
        let vocab = vocab.finish();
        for (&k, ns) in ends.iter().zip(links) {
            entries[pos(k) as usize].neighbors = ns
                .into_iter()
                .map(|(ch, list)| (ch, list.into_iter().map(pos).collect()))
                .collect();
        }
        let pairs: Vec<(u32, u32)> = pairs.iter().map(|&(a, b)| (pos(a), pos(b))).collect();
        let blocking = BlockingStats::of_counts(self.class_refs.iter().copied(), pairs.len());
        let index = |o: ObjectId| {
            let k = self.key_of(o)?;
            keys.binary_search(&k).ok().map(|i| i as u32)
        };
        let work = Work {
            entries: &entries,
            vocab: &vocab,
            index: &index,
            pairs,
            blocking,
        };
        execute(store, work, variant, cfg, start)
    }
}

#[cfg(test)]
mod tests {
    //! Equivalence of the persistent state with the rebuild-and-filter
    //! oracle ([`crate::engine::rebuild_and_filter`]) over random write
    //! sequences on generated desktops, and of probe blocking with the
    //! all-pairs list filtered to the new references.

    use super::*;
    use crate::blocking::candidate_pairs;
    use crate::engine::rebuild_and_filter;
    use crate::RefTable;
    use semex_corpus::{generate_personal, CorpusConfig};
    use semex_extract::{
        bibtex::extract_bibtex, email::extract_mbox, vcard::extract_vcards, ExtractContext,
    };
    use semex_model::names::{attr, class};
    use semex_store::{SourceInfo, SourceKind};

    /// xorshift64*: deterministic op sequences without external crates.
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n.max(1)
        }
    }

    /// FNV-1a over the clusters' object ids, one separator per cluster.
    fn cluster_hash(r: &ReconReport) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for cluster in &r.clusters {
            for x in cluster.iter().map(|o| o.0).chain([u64::MAX]) {
                for b in x.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Split a source into its records: lines starting with `marker` open
    /// a new one.
    fn records(text: &str, marker: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for line in text.lines() {
            if line.starts_with(marker) || out.is_empty() {
                out.push(String::new());
            }
            let cur = out.last_mut().expect("opened above");
            cur.push_str(line);
            cur.push('\n');
        }
        out
    }

    #[derive(Clone)]
    enum Source {
        Mail(String),
        Cards(String),
        Bib(String),
    }

    /// A generated desktop: a reconciled store built from part of its
    /// sources, the held-out rest, and `(name, address)` rows for tabular
    /// imports.
    fn desk(seed: u64) -> (Store, Vec<Source>, Vec<(String, String)>) {
        let corpus = generate_personal(&CorpusConfig::tiny(seed));
        let file = |suffix: &str| -> String {
            corpus
                .files
                .iter()
                .filter(|(p, _)| p.ends_with(suffix))
                .map(|(_, c)| c.as_str())
                .collect()
        };
        let mails = records(&file(".mbox"), "From ");
        let cards = records(&file(".vcf"), "BEGIN:VCARD");
        let bibs = records(&file(".bib"), "@");
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("base", SourceKind::Synthetic));
        let mut ctx = ExtractContext::new(&mut st, src);
        let mut held = Vec::new();
        for (i, b) in bibs.iter().enumerate() {
            if i % 3 == 2 {
                held.push(Source::Bib(b.clone()));
            } else {
                extract_bibtex(b, &mut ctx).unwrap();
            }
        }
        for (i, m) in mails.iter().enumerate() {
            if i % 2 == 1 {
                held.push(Source::Mail(m.clone()));
            } else {
                extract_mbox(m, &mut ctx).unwrap();
            }
        }
        for (i, c) in cards.iter().enumerate() {
            if i % 2 == 1 {
                held.push(Source::Cards(c.clone()));
            } else {
                extract_vcards(c, &mut ctx).unwrap();
            }
        }
        crate::reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
        let rows = corpus
            .world
            .people
            .iter()
            .map(|p| (p.canonical_name(), p.emails[0].clone()))
            .collect();
        (st, held, rows)
    }

    /// Apply one random write to `store` (recording events) and return the
    /// references to reconcile with the variant to use, if it reconciles.
    fn write(
        rng: &mut Rng,
        store: &mut Store,
        held: &mut Vec<Source>,
        rows: &[(String, String)],
        cfg: &mut ReconConfig,
        variant: Variant,
    ) -> Option<(Vec<ObjectId>, Variant)> {
        let person = store.model().class(class::PERSON).unwrap();
        let first_new = store.slot_count() as u64;
        let new = |store: &Store| {
            (first_new..store.slot_count() as u64)
                .map(ObjectId)
                .collect()
        };
        match rng.below(11) {
            0..=5 if !held.is_empty() => {
                let source = held.remove(rng.below(held.len()));
                let src = store.register_source(SourceInfo::new("new", SourceKind::Synthetic));
                let mut ctx = ExtractContext::new(store, src);
                match source {
                    Source::Mail(t) => extract_mbox(&t, &mut ctx).map(|_| ()),
                    Source::Cards(t) => extract_vcards(&t, &mut ctx).map(|_| ()),
                    Source::Bib(t) => extract_bibtex(&t, &mut ctx).map(|_| ()),
                }
                .unwrap();
                Some((new(store), variant))
            }
            0..=6 => {
                // A tabular import: people rows, reconciled as `Full`.
                let (a_name, a_email) = (
                    store.model().attr(attr::NAME).unwrap(),
                    store.model().attr(attr::EMAIL).unwrap(),
                );
                for _ in 0..1 + rng.below(3) {
                    let (name, email) = &rows[rng.below(rows.len())];
                    let o = store.add_object(person);
                    store.add_attr(o, a_name, name.as_str().into()).unwrap();
                    if rng.below(2) == 0 {
                        store.add_attr(o, a_email, email.as_str().into()).unwrap();
                    }
                }
                Some((new(store), Variant::Full))
            }
            10 => {
                // An existing reference gains a value (an edited record):
                // its row must be re-read before it probes again.
                let people: Vec<ObjectId> = store.objects_of_class(person).collect();
                let o = people[rng.below(people.len())];
                let (name, email) = &rows[rng.below(rows.len())];
                let (attr, value) = if rng.below(2) == 0 {
                    (attr::NAME, name)
                } else {
                    (attr::EMAIL, email)
                };
                let a = store.model().attr(attr).unwrap();
                store.add_attr(o, a, value.as_str().into()).unwrap();
                Some((vec![o], variant))
            }
            k => {
                let people: Vec<ObjectId> = store.objects_of_class(person).collect();
                let (a, b) = (
                    people[rng.below(people.len())],
                    people[rng.below(people.len())],
                );
                if a != b {
                    if k <= 8 {
                        cfg.must_link.push((a, b));
                        store.merge(a, b).unwrap();
                    } else {
                        cfg.cannot_link.push((a, b));
                    }
                }
                None
            }
        }
    }

    /// Every slot's live object: equal partitions give equal vectors.
    fn partition(store: &Store) -> Vec<ObjectId> {
        (0..store.slot_count() as u64)
            .map(|s| store.resolve(ObjectId(s)))
            .collect()
    }

    /// Drive one random write sequence through a persistent state, checking
    /// every run against the oracle on a copy of the same store. `batch`
    /// is how many writes share one publish of the event log (the state
    /// applies, then the log is released): 1 is the platform without index
    /// batching, larger values model batched commits (the state then
    /// applies at its next run, from the unreleased log).
    /// Returns the runs checked and the merges they made.
    fn run_sequence(seed: u64, variant: Variant, threads: usize, batch: usize) -> (usize, usize) {
        let (mut store, mut held, rows) = desk(seed);
        store.enable_events();
        let mut cfg = ReconConfig {
            threads,
            ..ReconConfig::default()
        };
        let mut rng = Rng(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut state: Option<ReconState> = None;
        let (mut runs, mut merges) = (0, 0);
        for step in 0..24 {
            if let Some((new, v)) = write(&mut rng, &mut store, &mut held, &rows, &mut cfg, variant)
            {
                let mut twin = store.clone();
                let want = rebuild_and_filter(&mut twin, &new, v, &cfg);
                let got = state
                    .get_or_insert_with(|| ReconState::new(&store))
                    .reconcile(&mut store, &new, v, &cfg);
                let key = |r: &ReconReport| {
                    (
                        r.merges,
                        cluster_hash(r),
                        r.iterations,
                        r.candidates,
                        r.refs,
                        r.blocking,
                    )
                };
                assert_eq!(
                    key(&got),
                    key(&want),
                    "seed {seed} {variant} threads {threads} batch {batch} step {step}"
                );
                assert!(got.examined <= want.examined);
                assert_eq!(partition(&store), partition(&twin));
                runs += 1;
                merges += got.merges;
            }
            if (step + 1) % batch == 0 {
                if let Some(s) = &mut state {
                    s.apply(&store);
                }
                store.release_events(store.event_head());
            }
        }
        // The state followed the store exactly: it equals a fresh build.
        let mut s = state.expect("every sequence reconciles at least once");
        s.apply(&store);
        let fresh = ReconState::new(&store);
        assert_eq!(s.class_refs, fresh.class_refs);
        let rows = |st: &ReconState| -> Vec<(usize, Vec<u64>)> {
            st.rows
                .iter()
                .enumerate()
                .filter_map(|(i, r)| Some((i, r.as_ref()?.keys.to_vec())))
                .collect()
        };
        assert_eq!(rows(&s), rows(&fresh));
        (runs, merges)
    }

    #[test]
    fn persistent_state_matches_rebuild_and_filter() {
        let (mut runs, mut merges) = (0, 0);
        for seed in [71u64, 72] {
            for variant in Variant::ALL {
                for threads in [1, 2] {
                    for batch in [1, 3] {
                        let (r, m) = run_sequence(seed, variant, threads, batch);
                        runs += r;
                        merges += m;
                    }
                }
            }
        }
        // The sequences must exercise the decision procedure, not just
        // agree on doing nothing.
        assert!(
            runs >= 300 && merges >= runs / 2,
            "{runs} runs, {merges} merges"
        );
    }

    #[test]
    fn probing_matches_filtered_all_pairs() {
        // A desktop plus 300 references sharing one family name, so one
        // bucket exceeds MAX_BUCKET and must be skipped by both paths.
        let (mut store, _, _) = desk(73);
        let person = store.model().class(class::PERSON).unwrap();
        let a_name = store.model().attr(attr::NAME).unwrap();
        for i in 0..300 {
            let o = store.add_object(person);
            let name = format!("Given{i} Overfull");
            store.add_attr(o, a_name, name.as_str().into()).unwrap();
        }
        let state = ReconState::new(&store);
        let table = RefTable::attributes(&store);
        let all = candidate_pairs(&table);
        let mut rng = Rng(73);
        let live: Vec<ObjectId> = table.entries.iter().map(|e| e.obj).collect();
        for round in 0..40 {
            let new: Vec<ObjectId> = (0..1 + rng.below(12))
                .map(|_| live[rng.below(live.len())])
                .collect();
            let new_idx: Vec<u32> = new.iter().map(|o| table.index_of[o]).collect();
            let want: Vec<(u32, u32)> = all
                .iter()
                .copied()
                .filter(|(a, b)| new_idx.contains(a) || new_idx.contains(b))
                .collect();
            let mut new_refs = new.clone();
            new_refs.sort_unstable();
            new_refs.dedup();
            let got: Vec<(u32, u32)> = state
                .probe(&new_refs)
                .into_iter()
                .map(|(a, b)| (table.index_of[&key_obj(a)], table.index_of[&key_obj(b)]))
                .collect();
            assert_eq!(got, want, "round {round}");
        }
        let overfull = state
            .index
            .chunk_by(|x, y| (x.0, x.1) == (y.0, y.1))
            .filter(|m| m.len() > MAX_BUCKET)
            .count();
        assert!(overfull >= 1, "the fixture must overflow a bucket");
    }
}
