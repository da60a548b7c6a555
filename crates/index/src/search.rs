//! The inverted index: interned terms, flat postings, incremental
//! maintenance. Ranked retrieval lives in the `topk` module (pruned) and
//! [`SearchIndex::search_exhaustive`] (reference scorer).

use crate::dict::TermDict;
use crate::postings::PostingList;
use crate::tokenizer::index_tokens_into;
use crate::{Bm25Params, Query};
use semex_model::names::attr;
use semex_model::ClassId;
use semex_store::{ChunkVec, ObjectId, Store, StoreEvent};
use std::collections::HashMap;
use std::sync::Arc;

/// One ranked search result.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// The matching object.
    pub object: ObjectId,
    /// BM25 relevance score (higher is better).
    pub score: f64,
    /// Number of query terms the object matched.
    pub matched_terms: usize,
}

/// Per-document bookkeeping for one dense doc slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DocEntry {
    pub(crate) object: ObjectId,
    pub(crate) class: ClassId,
    pub(crate) len: f32,
    pub(crate) live: bool,
}

/// Field weights: hits in identity fields outrank body hits.
fn field_weight(attr_name: &str) -> f64 {
    match attr_name {
        attr::NAME | attr::TITLE | attr::SUBJECT => 3.0,
        attr::EMAIL | attr::ABBREVIATION => 2.5,
        attr::PATH | attr::URL | attr::LOCATION => 1.5,
        _ => 1.0,
    }
}

/// The tokenized documents of one build shard: a local term dictionary
/// (ids in shard-wide first-encounter order) plus per-document term lists
/// in first-occurrence order. Workers produce shards independently;
/// [`SearchIndex::absorb`] merges them in shard order, which reproduces the
/// sequential build bit for bit.
struct Shard {
    dict: TermDict,
    docs: Vec<ShardDoc>,
}

struct ShardDoc {
    object: ObjectId,
    class: ClassId,
    len: f64,
    /// `(local term id, weighted tf)` in first-occurrence order.
    terms: Vec<(u32, f64)>,
}

/// Tokenize a slice of store objects into a self-contained shard.
fn tokenize_shard(store: &Store, objects: &[ObjectId]) -> Shard {
    let model = store.model();
    let mut dict = TermDict::new();
    let mut docs = Vec::new();
    let mut toks: Vec<String> = Vec::new();
    let mut slot: HashMap<u32, usize> = HashMap::new();
    for &obj in objects {
        let o = store.object(obj);
        let mut terms: Vec<(u32, f64)> = Vec::new();
        let mut len = 0.0f64;
        slot.clear();
        for (a, v) in &o.attrs {
            let def = model.attr_def(*a);
            if !def.indexed {
                continue;
            }
            let Some(text) = v.as_str() else { continue };
            let w = field_weight(&def.name);
            toks.clear();
            index_tokens_into(text, &mut toks);
            for t in toks.drain(..) {
                len += 1.0;
                let tid = dict.intern(&t);
                match slot.get(&tid) {
                    Some(&i) => terms[i].1 += w,
                    None => {
                        slot.insert(tid, terms.len());
                        terms.push((tid, w));
                    }
                }
            }
        }
        if !terms.is_empty() {
            docs.push(ShardDoc {
                object: obj,
                class: o.class,
                len,
                terms,
            });
        }
    }
    Shard { dict, docs }
}

/// An inverted index over the indexed string attributes of store objects.
///
/// Terms are interned to dense `u32` ids ([`TermDict`]); each term id owns a
/// flat doc-sorted [`PostingList`] carrying its live document frequency and
/// a max-impact bound for pruned top-k evaluation. Build with
/// [`SearchIndex::build`] / [`SearchIndex::build_threaded`] (after
/// reconciliation, so merged objects are single documents pooling all their
/// surface forms), then keep it current with [`SearchIndex::apply_events`]:
/// mutations tombstone and re-tokenize only the touched documents, and the
/// index compacts itself when enough tombstones accumulate.
///
/// Like the store, the index keeps its large fields in copy-on-write
/// [`ChunkVec`]s and shares its dictionary behind an `Arc`: a clone (a
/// published snapshot) copies root pointers, and a later write copies the
/// chunks it touches — the dictionary only when a batch interns a term.
#[derive(Debug, Clone, Default)]
pub struct SearchIndex {
    pub(crate) dict: Arc<TermDict>,
    /// Indexed by term id.
    pub(crate) postings: ChunkVec<PostingList>,
    /// Indexed by dense doc slot; tombstoned entries stay until compaction.
    pub(crate) docs: ChunkVec<DocEntry>,
    /// Forward index: `(term id, weighted tf)` per live doc slot, in
    /// first-occurrence order. Emptied when a doc is tombstoned (its df
    /// contributions are retracted at that moment).
    doc_terms: ChunkVec<Vec<(u32, f32)>>,
    /// The live doc slot of each object, indexed by object slot; [`NO_DOC`]
    /// where an object has none.
    doc_of: ChunkVec<u32>,
    pub(crate) live_docs: usize,
    /// Sum of live doc lengths. Lengths are integer-valued, so adds and
    /// retractions are exact and `avg_doc_len` matches a fresh build.
    pub(crate) total_len: f64,
    pub(crate) params: Bm25Params,
    /// Non-empty [`SearchIndex::apply_events`] batches folded in so far.
    /// Write-batching layers assert on this: N coalesced mutations must
    /// cost one delta application, not N.
    apply_calls: u64,
}

/// The `doc_of` entry of an object without a live document.
const NO_DOC: u32 = u32::MAX;

/// The `doc_of` table of a set of doc slots: each live doc's object maps to
/// its slot.
fn doc_slots(docs: &ChunkVec<DocEntry>) -> ChunkVec<u32> {
    let mut doc_of = Vec::new();
    for (i, d) in docs.iter().enumerate().filter(|(_, d)| d.live) {
        let at = d.object.index();
        if doc_of.len() <= at {
            doc_of.resize(at + 1, NO_DOC);
        }
        doc_of[at] = i as u32;
    }
    doc_of.into_iter().collect()
}

impl SearchIndex {
    /// An empty index.
    pub fn new(params: Bm25Params) -> Self {
        SearchIndex {
            params,
            ..Default::default()
        }
    }

    /// Index every live object of the store, sequentially.
    pub fn build(store: &Store) -> Self {
        SearchIndex::build_threaded(store, 1)
    }

    /// [`SearchIndex::build_threaded`] at the machine's parallelism.
    pub fn build_parallel(store: &Store) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        SearchIndex::build_threaded(store, threads)
    }

    /// Index every live object across `threads` workers: store objects are
    /// partitioned into contiguous chunks, tokenized independently into
    /// per-shard dictionaries, and merged in chunk order. Term ids, posting
    /// order and every ranked result are identical to the sequential build
    /// at any thread count.
    pub fn build_threaded(store: &Store, threads: usize) -> Self {
        let mut idx = SearchIndex::new(Bm25Params::default());
        let objects: Vec<ObjectId> = store.objects().collect();
        if objects.is_empty() {
            return idx;
        }
        let workers = threads.max(1).min(objects.len());
        if workers <= 1 {
            idx.absorb(tokenize_shard(store, &objects));
            return idx;
        }
        let chunk = objects.len().div_ceil(workers);
        let shards: Vec<Shard> = std::thread::scope(|scope| {
            let handles: Vec<_> = objects
                .chunks(chunk)
                .map(|c| scope.spawn(move || tokenize_shard(store, c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("index shard workers do not panic"))
                .collect()
        });
        for shard in shards {
            idx.absorb(shard);
        }
        idx
    }

    /// Intern a term into the global dictionary, growing the posting array.
    /// A known term leaves a shared dictionary shared.
    fn intern_term(&mut self, term: &str) -> u32 {
        let id = match self.dict.lookup(term) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.dict).intern(term),
        };
        if self.postings.len() <= id as usize {
            self.postings
                .resize_with(id as usize + 1, PostingList::default);
        }
        id
    }

    /// Merge one shard into the index: remap its local term ids (in local
    /// order, so global ids come out exactly as a sequential build would
    /// assign them) and append its documents in order.
    fn absorb(&mut self, shard: Shard) {
        let mut remap: Vec<u32> = Vec::with_capacity(shard.dict.len());
        for lid in 0..shard.dict.len() {
            remap.push(self.intern_term(shard.dict.term(lid as u32)));
        }
        for d in shard.docs {
            debug_assert!(
                self.doc_slot(d.object).is_none(),
                "absorb expects unseen objects; add_object replaces first"
            );
            let doc = u32::try_from(self.docs.len()).expect("doc slot space exceeded");
            let mut fwd = Vec::with_capacity(d.terms.len());
            for (lid, tf) in d.terms {
                let gid = remap[lid as usize];
                let tf = tf as f32;
                self.postings[gid as usize].push(doc, tf);
                fwd.push((gid, tf));
            }
            let len = d.len as f32;
            self.docs.push(DocEntry {
                object: d.object,
                class: d.class,
                len,
                live: true,
            });
            self.doc_terms.push(fwd);
            self.doc_of.resize_with(d.object.index() + 1, || NO_DOC);
            self.doc_of[d.object.index()] = doc;
            self.live_docs += 1;
            self.total_len += f64::from(len);
        }
    }

    /// Add — or re-add — one object. A re-add *replaces* the object's
    /// document (tombstone + fresh slot), so post-merge re-indexing picks
    /// up pooled surface forms instead of silently keeping the stale ones.
    pub fn add_object(&mut self, store: &Store, obj: ObjectId) {
        let obj = store.resolve(obj);
        self.remove_object(obj);
        self.absorb(tokenize_shard(store, std::slice::from_ref(&obj)));
    }

    /// Tombstone an object's document, if it has one: the doc slot is
    /// marked dead, its length leaves the corpus totals and its postings'
    /// live counts (the df BM25 uses) are retracted immediately. The
    /// posting entries themselves linger until [`SearchIndex::compact`].
    /// Returns whether a document was removed.
    pub fn remove_object(&mut self, obj: ObjectId) -> bool {
        let Some(doc) = self.doc_slot(obj) else {
            return false;
        };
        self.doc_of[obj.index()] = NO_DOC;
        let entry = &mut self.docs[doc as usize];
        entry.live = false;
        self.total_len -= f64::from(entry.len);
        self.live_docs -= 1;
        for (tid, _) in std::mem::take(&mut self.doc_terms[doc as usize]) {
            self.postings[tid as usize].live -= 1;
        }
        true
    }

    /// Apply a drained batch of store mutation events: merges tombstone
    /// every alias on the loser's chain, and objects whose indexed text
    /// grew (new indexed string attribute, merge winners pooling attrs) are
    /// re-tokenized in place. Ends with an automatic compaction when the
    /// tombstone fraction is high. The result is identical to
    /// [`SearchIndex::build`] over the post-mutation store.
    pub fn apply_events(&mut self, store: &Store, events: &[StoreEvent]) {
        if events.is_empty() {
            return;
        }
        self.apply_calls += 1;
        let model = store.model();
        let mut dirty: Vec<ObjectId> = Vec::new();
        for e in events {
            if let Some(loser) = e.tombstones() {
                // The event may carry a pre-resolution loser; every alias
                // on its chain (in the *final* store state) is dead.
                let mut cur = loser;
                while let Some(next) = store.object_raw(cur).and_then(|o| o.merged_into) {
                    self.remove_object(cur);
                    cur = next;
                }
            }
            if let Some(obj) = e.retokenizes(model) {
                dirty.push(obj);
            }
        }
        for obj in &mut dirty {
            *obj = store.resolve(*obj);
        }
        dirty.sort_unstable();
        dirty.dedup();
        for obj in dirty {
            self.add_object(store, obj);
        }
        self.maybe_compact();
    }

    /// Compact when at least a quarter of the doc slots (and a minimum
    /// worth bothering about) are tombstones.
    fn maybe_compact(&mut self) {
        let dead = self.docs.len() - self.live_docs;
        if dead >= 64 && dead * 4 >= self.docs.len() {
            self.compact();
        }
    }

    /// The live doc slot of an object, if it has one.
    fn doc_slot(&self, obj: ObjectId) -> Option<u32> {
        self.doc_of
            .get(obj.index())
            .copied()
            .filter(|&d| d != NO_DOC)
    }

    /// Drop tombstoned doc slots and their postings, renumbering the
    /// survivors. Purely index-local (no store access): the forward index
    /// of live docs carries everything needed. Per-term `max_tf` bounds are
    /// recomputed exactly, so pruning tightens back up after heavy churn.
    pub fn compact(&mut self) {
        if self.live_docs == self.docs.len() {
            return;
        }
        let mut remap: Vec<u32> = vec![u32::MAX; self.docs.len()];
        let mut new_docs: ChunkVec<DocEntry> = ChunkVec::new();
        let mut new_terms: ChunkVec<Vec<(u32, f32)>> = ChunkVec::new();
        for (i, slot) in remap.iter_mut().enumerate() {
            if self.docs[i].live {
                *slot = new_docs.len() as u32;
                new_docs.push(self.docs[i]);
                new_terms.push(std::mem::take(&mut self.doc_terms[i]));
            }
        }
        self.postings.for_each_mut(|list| {
            let mut max_tf = 0.0f32;
            list.postings.retain_mut(|p| {
                let nd = remap[p.doc as usize];
                if nd == u32::MAX {
                    return false;
                }
                p.doc = nd;
                if p.weighted_tf > max_tf {
                    max_tf = p.weighted_tf;
                }
                true
            });
            list.max_tf = max_tf;
            debug_assert_eq!(list.live as usize, list.postings.len());
        });
        self.doc_of = doc_slots(&new_docs);
        self.docs = new_docs;
        self.doc_terms = new_terms;
    }

    /// Number of live indexed documents (objects).
    pub fn doc_count(&self) -> usize {
        self.live_docs
    }

    /// Number of tombstoned doc slots awaiting compaction.
    pub fn dead_doc_count(&self) -> usize {
        self.docs.len() - self.live_docs
    }

    /// How many non-empty event batches [`SearchIndex::apply_events`] has
    /// folded in over this index's lifetime. A batched write path that
    /// coalesces N mutations into one published snapshot must advance this
    /// by exactly one per batch.
    pub fn apply_calls(&self) -> u64 {
        self.apply_calls
    }

    /// Every piece of state the binary sidecar format persists, borrowed.
    /// (`doc_of` is derivable from `docs`; `apply_calls` restarts at zero.)
    #[allow(clippy::type_complexity)]
    pub(crate) fn sidecar_parts(
        &self,
    ) -> (
        &TermDict,
        &ChunkVec<PostingList>,
        &ChunkVec<DocEntry>,
        &ChunkVec<Vec<(u32, f32)>>,
        usize,
        f64,
        Bm25Params,
    ) {
        (
            &self.dict,
            &self.postings,
            &self.docs,
            &self.doc_terms,
            self.live_docs,
            self.total_len,
            self.params,
        )
    }

    /// Reassemble an index from decoded sidecar state: `doc_of` is rebuilt
    /// from the live doc slots, `apply_calls` restarts at zero.
    pub(crate) fn from_sidecar_parts(
        dict: TermDict,
        postings: ChunkVec<PostingList>,
        docs: ChunkVec<DocEntry>,
        doc_terms: ChunkVec<Vec<(u32, f32)>>,
        live_docs: usize,
        total_len: f64,
        params: Bm25Params,
    ) -> Self {
        SearchIndex {
            doc_of: doc_slots(&docs),
            dict: Arc::new(dict),
            postings,
            docs,
            doc_terms,
            live_docs,
            total_len,
            params,
            apply_calls: 0,
        }
    }

    /// Number of distinct terms with at least one live posting.
    pub fn term_count(&self) -> usize {
        self.postings.iter().filter(|l| l.live > 0).count()
    }

    /// Document frequency of a term (live documents only).
    pub fn df(&self, term: &str) -> usize {
        self.dict
            .lookup(term)
            .map_or(0, |id| self.postings[id as usize].live as usize)
    }

    /// Average live-document length (0 when the index is empty). Stays
    /// equal to a fresh build's average across tombstones: lengths are
    /// integer-valued, so incremental retraction is exact.
    pub fn avg_doc_len(&self) -> f64 {
        if self.live_docs == 0 {
            0.0
        } else {
            self.total_len / self.live_docs as f64
        }
    }

    /// Run a parsed query, returning the top `k` hits ranked by BM25 with
    /// an all-terms boost. The class filter (if any) is resolved against
    /// the store's model.
    ///
    /// This is the pruned MaxScore evaluator: per-term impact bounds let it
    /// skip documents that cannot reach the current top-k floor. Results
    /// are identical — scores included — to
    /// [`SearchIndex::search_exhaustive`].
    pub fn search(&self, store: &Store, query: &Query, k: usize) -> Vec<Hit> {
        crate::topk::search_pruned(self, store, query, k)
    }

    /// The reference scorer: score every posting of every query term, sort,
    /// truncate. Kept as the oracle the pruned path is verified against
    /// (equivalence tests, benches).
    pub fn search_exhaustive(&self, store: &Store, query: &Query, k: usize) -> Vec<Hit> {
        if query.is_empty() || self.live_docs == 0 || k == 0 {
            return Vec::new();
        }
        let class_filter: Option<ClassId> = query
            .class_filter
            .as_deref()
            .and_then(|name| store.model().class(name));
        if query.class_filter.is_some() && class_filter.is_none() {
            return Vec::new(); // unknown class matches nothing
        }
        let n = self.live_docs;
        let avg_dl = self.total_len / n as f64;
        let mut scores: HashMap<u32, (f64, usize)> = HashMap::new();
        for term in &query.terms {
            let Some(tid) = self.dict.lookup(term) else {
                continue;
            };
            let list = &self.postings[tid as usize];
            let df = list.live as usize;
            if df == 0 {
                continue;
            }
            for p in &list.postings {
                let d = &self.docs[p.doc as usize];
                if !d.live {
                    continue;
                }
                let s =
                    self.params
                        .score(f64::from(p.weighted_tf), df, n, f64::from(d.len), avg_dl);
                let e = scores.entry(p.doc).or_insert((0.0, 0));
                e.0 += s;
                e.1 += 1;
            }
        }
        let n_terms = query.terms.len();
        let mut hits: Vec<Hit> = scores
            .into_iter()
            .filter(|(doc, _)| {
                class_filter
                    .map(|c| self.docs[*doc as usize].class == c)
                    .unwrap_or(true)
            })
            .map(|(doc, (mut score, matched))| {
                if matched == n_terms && n_terms > 1 {
                    score *= self.params.all_terms_boost;
                }
                Hit {
                    object: self.docs[doc as usize].object,
                    score,
                    matched_terms: matched,
                }
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.object.cmp(&b.object)));
        hits.truncate(k);
        hits
    }

    /// Convenience: parse and run a query string (pruned evaluator).
    pub fn search_str(&self, store: &Store, query: &str, k: usize) -> Vec<Hit> {
        self.search(store, &Query::parse(query), k)
    }

    /// Convenience: parse and run a query string through the reference
    /// scorer.
    pub fn search_str_exhaustive(&self, store: &Store, query: &str, k: usize) -> Vec<Hit> {
        self.search_exhaustive(store, &Query::parse(query), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_model::names::class;
    use semex_model::Value;
    use semex_store::{SourceInfo, SourceKind};

    fn sample_store() -> Store {
        let mut st = Store::with_builtin_model();
        let _ = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let model = st.model();
        let person = model.class(class::PERSON).unwrap();
        let publication = model.class(class::PUBLICATION).unwrap();
        let message = model.class(class::MESSAGE).unwrap();
        let a_name = model.attr(attr::NAME).unwrap();
        let a_email = model.attr(attr::EMAIL).unwrap();
        let a_title = model.attr(attr::TITLE).unwrap();
        let a_subject = model.attr(attr::SUBJECT).unwrap();
        let a_body = model.attr(attr::BODY).unwrap();

        let p1 = st.add_object(person);
        st.add_attr(p1, a_name, Value::from("Xin Luna Dong"))
            .unwrap();
        st.add_attr(p1, a_email, Value::from("luna@cs.example.edu"))
            .unwrap();
        let p2 = st.add_object(person);
        st.add_attr(p2, a_name, Value::from("Alon Halevy")).unwrap();

        let pb = st.add_object(publication);
        st.add_attr(
            pb,
            a_title,
            Value::from("Reference Reconciliation in Complex Information Spaces"),
        )
        .unwrap();

        let m = st.add_object(message);
        st.add_attr(m, a_subject, Value::from("reconciliation demo"))
            .unwrap();
        st.add_attr(
            m,
            a_body,
            Value::from("long body mentioning reconciliation and more reconciliation text about the demo session"),
        )
        .unwrap();
        st
    }

    #[test]
    fn finds_objects_by_any_field() {
        let st = sample_store();
        let idx = SearchIndex::build(&st);
        assert_eq!(idx.doc_count(), 4);
        let hits = idx.search_str(&st, "luna", 10);
        assert_eq!(hits.len(), 1);
        let hits = idx.search_str(&st, "luna@cs.example.edu", 10);
        assert_eq!(hits.len(), 1);
        let hits = idx.search_str(&st, "reconciliation", 10);
        assert_eq!(hits.len(), 2, "publication and message");
    }

    #[test]
    fn identity_fields_outrank_bodies() {
        let st = sample_store();
        let idx = SearchIndex::build(&st);
        let hits = idx.search_str(&st, "reconciliation", 10);
        // The publication (title field, weight 3) must outrank the message
        // despite the message's higher raw term frequency in the body.
        let model = st.model();
        let top_class = st.object(hits[0].object).class;
        assert_eq!(model.class_def(top_class).name, class::PUBLICATION);
    }

    #[test]
    fn class_filter() {
        let st = sample_store();
        let idx = SearchIndex::build(&st);
        let hits = idx.search_str(&st, "class:Message reconciliation", 10);
        assert_eq!(hits.len(), 1);
        let hits = idx.search_str(&st, "class:Venue reconciliation", 10);
        assert!(hits.is_empty());
        let hits = idx.search_str(&st, "class:Bogus reconciliation", 10);
        assert!(hits.is_empty());
    }

    #[test]
    fn all_terms_boost_orders_results() {
        let st = sample_store();
        let idx = SearchIndex::build(&st);
        let hits = idx.search_str(&st, "reconciliation demo", 10);
        assert!(hits.len() >= 2);
        // The message matches both terms; the publication only one.
        assert_eq!(hits[0].matched_terms, 2);
        let model = st.model();
        assert_eq!(
            model.class_def(st.object(hits[0].object).class).name,
            class::MESSAGE
        );
    }

    #[test]
    fn empty_query_and_k_truncation() {
        let st = sample_store();
        let idx = SearchIndex::build(&st);
        assert!(idx.search_str(&st, "", 10).is_empty());
        assert!(idx.search_str(&st, "the of", 10).is_empty());
        assert!(idx.search_str(&st, "reconciliation", 0).is_empty());
        let hits = idx.search_str(&st, "reconciliation", 1);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn merged_objects_are_single_documents() {
        let mut st = sample_store();
        let model = st.model();
        let person = model.class(class::PERSON).unwrap();
        let a_name = model.attr(attr::NAME).unwrap();
        let p3 = st.add_object(person);
        st.add_attr(p3, a_name, Value::from("X. Dong")).unwrap();
        let p1 = st.objects_of_class(person).next().unwrap();
        st.merge(p1, p3).unwrap();
        let idx = SearchIndex::build(&st);
        let hits = idx.search_str(&st, "dong", 10);
        assert_eq!(hits.len(), 1, "one merged person document");
    }

    #[test]
    fn stats_accessors() {
        let st = sample_store();
        let idx = SearchIndex::build(&st);
        assert!(idx.term_count() > 5);
        assert_eq!(idx.df("reconciliation"), 2);
        assert_eq!(idx.df("nonexistentterm"), 0);
        assert_eq!(idx.dead_doc_count(), 0);
        assert!(idx.avg_doc_len() > 0.0);
    }

    #[test]
    fn threaded_build_matches_sequential() {
        let st = sample_store();
        let seq = SearchIndex::build(&st);
        let par = SearchIndex::build_threaded(&st, 3);
        assert_eq!(seq.doc_count(), par.doc_count());
        assert_eq!(seq.term_count(), par.term_count());
        for q in ["reconciliation demo", "luna dong", "class:Person dong"] {
            assert_eq!(
                seq.search_str(&st, q, 10),
                par.search_str(&st, q, 10),
                "{q}"
            );
        }
    }

    #[test]
    fn pruned_matches_exhaustive_on_samples() {
        let st = sample_store();
        let idx = SearchIndex::build(&st);
        for q in [
            "reconciliation",
            "reconciliation demo",
            "class:Message reconciliation demo",
            "luna@cs.example.edu",
            "dong halevy reconciliation",
            "missingterm reconciliation",
        ] {
            for k in [1, 2, 10] {
                assert_eq!(
                    idx.search_str(&st, q, k),
                    idx.search_str_exhaustive(&st, q, k),
                    "query {q:?} k {k}"
                );
            }
        }
    }

    /// Satellite regression: equal scores must tie-break on ascending
    /// object id, under both evaluators (`total_cmp` ordering).
    #[test]
    fn equal_scores_tie_break_on_object_id() {
        let mut st = Store::with_builtin_model();
        let person = st.model().class(class::PERSON).unwrap();
        let a_name = st.model().attr(attr::NAME).unwrap();
        let mut ids = Vec::new();
        for _ in 0..5 {
            let p = st.add_object(person);
            st.add_attr(p, a_name, Value::from("Twin Smith")).unwrap();
            ids.push(p);
        }
        let idx = SearchIndex::build(&st);
        let hits = idx.search_str(&st, "twin", 5);
        assert_eq!(hits.len(), 5);
        let order: Vec<ObjectId> = hits.iter().map(|h| h.object).collect();
        assert_eq!(order, ids, "identical scores sort by object id");
        assert!(hits.windows(2).all(|w| w[0].score == w[1].score));
        // Truncation keeps the smallest ids, in both evaluators.
        let top2 = idx.search_str(&st, "twin", 2);
        assert_eq!(top2, idx.search_str_exhaustive(&st, "twin", 2));
        assert_eq!(top2[0].object, ids[0]);
        assert_eq!(top2[1].object, ids[1]);
    }

    /// Satellite regression: re-adding an object replaces its document
    /// instead of silently keeping the stale one.
    #[test]
    fn re_add_replaces_document() {
        let mut st = Store::with_builtin_model();
        let person = st.model().class(class::PERSON).unwrap();
        let a_name = st.model().attr(attr::NAME).unwrap();
        let a_email = st.model().attr(attr::EMAIL).unwrap();
        let p = st.add_object(person);
        st.add_attr(p, a_name, Value::from("Ann Example")).unwrap();
        let mut idx = SearchIndex::new(Bm25Params::default());
        idx.add_object(&st, p);
        assert_eq!(idx.doc_count(), 1);
        assert!(idx.search_str(&st, "ann", 5).len() == 1);

        st.add_attr(p, a_email, Value::from("ann@z.example"))
            .unwrap();
        idx.add_object(&st, p);
        assert_eq!(idx.doc_count(), 1, "replaced, not duplicated");
        assert_eq!(idx.search_str(&st, "ann@z.example", 5).len(), 1);
        assert_eq!(idx.df("ann"), 1, "stale posting retracted from df");
    }

    /// Satellite regression: merged-away objects leave the corpus totals —
    /// `avg_doc_len` must match a fresh build once deletions exist.
    #[test]
    fn removal_maintains_lengths_and_counts() {
        let st = sample_store();
        let mut idx = SearchIndex::build(&st);
        let message = st.model().class(class::MESSAGE).unwrap();
        let m = st.objects_of_class(message).next().unwrap();
        assert!(idx.remove_object(m));
        assert!(!idx.remove_object(m), "second removal is a no-op");
        assert_eq!(idx.doc_count(), 3);
        assert_eq!(idx.dead_doc_count(), 1);
        assert_eq!(idx.df("reconciliation"), 1, "df excludes the tombstone");

        // The oracle: an index built without the message at all.
        let mut st2 = Store::with_builtin_model();
        let person = st2.model().class(class::PERSON).unwrap();
        let publication = st2.model().class(class::PUBLICATION).unwrap();
        let a_name = st2.model().attr(attr::NAME).unwrap();
        let a_email = st2.model().attr(attr::EMAIL).unwrap();
        let a_title = st2.model().attr(attr::TITLE).unwrap();
        let p1 = st2.add_object(person);
        st2.add_attr(p1, a_name, Value::from("Xin Luna Dong"))
            .unwrap();
        st2.add_attr(p1, a_email, Value::from("luna@cs.example.edu"))
            .unwrap();
        let p2 = st2.add_object(person);
        st2.add_attr(p2, a_name, Value::from("Alon Halevy"))
            .unwrap();
        let pb = st2.add_object(publication);
        st2.add_attr(
            pb,
            a_title,
            Value::from("Reference Reconciliation in Complex Information Spaces"),
        )
        .unwrap();
        let fresh = SearchIndex::build(&st2);
        assert_eq!(idx.avg_doc_len(), fresh.avg_doc_len());
        let a = idx.search_str(&st, "reconciliation", 10);
        let b = fresh.search_str(&st2, "reconciliation", 10);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].score, b[0].score, "scores agree across tombstones");
    }

    /// Satellite regression: event-driven maintenance re-indexes merge
    /// winners, so pooled surface forms become searchable.
    #[test]
    fn merge_events_reindex_winner() {
        let mut st = sample_store();
        st.enable_events();
        let person = st.model().class(class::PERSON).unwrap();
        let a_name = st.model().attr(attr::NAME).unwrap();
        let mut idx = SearchIndex::build(&st);
        st.take_events(); // the index already covers the base store

        let p3 = st.add_object(person);
        st.add_attr(p3, a_name, Value::from("Luna D. Zyzzx"))
            .unwrap();
        let p1 = st.objects_of_class(person).next().unwrap();
        st.merge(p1, p3).unwrap();
        let events = st.take_events();
        idx.apply_events(&st, &events);

        assert_eq!(idx.doc_count(), 4, "loser tombstoned, winner re-indexed");
        let hits = idx.search_str(&st, "zyzzx", 10);
        assert_eq!(hits.len(), 1, "pooled surface form is searchable");
        assert_eq!(hits[0].object, st.resolve(p1));
        // Byte-identical to a from-scratch build.
        let rebuilt = SearchIndex::build(&st);
        for q in ["dong", "zyzzx", "reconciliation demo", "class:Person luna"] {
            assert_eq!(
                idx.search_str(&st, q, 10),
                rebuilt.search_str(&st, q, 10),
                "{q}"
            );
        }
        assert_eq!(idx.doc_count(), rebuilt.doc_count());
        assert_eq!(idx.term_count(), rebuilt.term_count());
        assert_eq!(idx.avg_doc_len(), rebuilt.avg_doc_len());
    }

    #[test]
    fn compaction_preserves_results() {
        let mut st = Store::with_builtin_model();
        let person = st.model().class(class::PERSON).unwrap();
        let a_name = st.model().attr(attr::NAME).unwrap();
        let mut ids = Vec::new();
        for i in 0..40 {
            let p = st.add_object(person);
            st.add_attr(p, a_name, Value::from(format!("Person{i} Shared").as_str()))
                .unwrap();
            ids.push(p);
        }
        let mut idx = SearchIndex::build(&st);
        for p in ids.iter().skip(20) {
            idx.remove_object(*p);
        }
        let before = idx.search_str(&st, "shared person5", 10);
        assert_eq!(idx.dead_doc_count(), 20);
        idx.compact();
        assert_eq!(idx.dead_doc_count(), 0);
        assert_eq!(idx.doc_count(), 20);
        let after = idx.search_str(&st, "shared person5", 10);
        assert_eq!(before, after, "compaction never changes results");
        assert_eq!(idx.df("shared"), 20);
        assert_eq!(idx.df("person25"), 0, "dead term has no live postings");
    }
}
