//! The reconciliation engine: dependency-graph propagation with reference
//! enrichment over blocked candidate pairs, sharded across cores.

use crate::blocking::{self, BlockingStats};
use crate::refs::{RefEntry, RefTable, Vocab};
use crate::score::{attr_score, Pool, Verdicts};
use crate::shard::{self, Shard};
use crate::state::ReconState;
use crate::worklist::{run_shard, Oracle, ShardOutcome};
use crate::{ReconConfig, UnionFind, Variant};
use semex_model::names::assoc as an;
use semex_store::{ObjectId, Store};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Outcome of a reconciliation run.
#[derive(Debug, Clone)]
pub struct ReconReport {
    /// The variant that ran.
    pub variant: Variant,
    /// Live references in the space.
    pub refs: usize,
    /// References the run examined: the rows of its working table. A full
    /// run examines every reference; an incremental run examines only the
    /// endpoints of its candidate pairs, their evidence neighbours and the
    /// references named in feedback constraints — a count set by what the
    /// new references touch, not by the size of the space.
    pub examined: usize,
    /// Candidate pairs after blocking.
    pub candidates: usize,
    /// Blocking statistics.
    pub blocking: BlockingStats,
    /// Merges applied to the store.
    pub merges: usize,
    /// Worklist iterations (candidate evaluations, including re-runs).
    pub iterations: usize,
    /// Independent worklist shards (0 for non-propagating variants, which
    /// evaluate each candidate exactly once and need no partitioning).
    pub shards: usize,
    /// Pooled-score memo hits: re-activated candidates whose clusters had
    /// not changed, skipping pooling and attribute scoring entirely.
    pub memo_hits: usize,
    /// Pooled attribute scores computed (reference enrichment re-scoring
    /// a pair over its clusters' pooled values; 0 without enrichment).
    pub pooled_scores: usize,
    /// Pooled person comparisons answered from the shards' verdict memos
    /// (name against name, address against name) instead of recomputed.
    pub verdict_hits: usize,
    /// Wall-clock time of the reconciliation (excluding store mutation).
    pub elapsed: Duration,
    /// Clusters with more than one member, as store object ids.
    pub clusters: Vec<Vec<ObjectId>>,
}

/// Run reconciliation on a store and apply the resulting merges.
pub fn reconcile(store: &mut Store, variant: Variant, cfg: &ReconConfig) -> ReconReport {
    let start = Instant::now();
    let mut table = RefTable::attributes(store);
    let pairs = blocking::candidate_pairs(&table);
    table.link(store, &endpoints(&pairs), cfg.max_fanout);
    execute_table(store, &table, pairs, variant, cfg, start)
}

/// Incremental reconciliation: consider only candidate pairs that involve
/// at least one of `new_objects` (the references added since the last
/// run). Evidence still flows through the *whole* reference graph, so a
/// new reference can merge with any existing one; what is skipped is the
/// re-evaluation of old-old pairs, which previous runs already settled.
///
/// This builds a fresh [`ReconState`] and runs
/// [`ReconState::reconcile`]; a caller that reconciles repeatedly (the
/// platform's ingest loop) keeps the state instead, so each run costs time
/// proportional to the new references rather than to the space.
pub fn reconcile_incremental(
    store: &mut Store,
    new_objects: &[ObjectId],
    variant: Variant,
    cfg: &ReconConfig,
) -> ReconReport {
    ReconState::new(store).reconcile(store, new_objects, variant, cfg)
}

/// Every reference that is an endpoint of some candidate pair, ascending.
fn endpoints(pairs: &[(u32, u32)]) -> Vec<u32> {
    let mut refs: Vec<u32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    refs.sort_unstable();
    refs.dedup();
    refs
}

/// The working table of one run. Entries are in global order (class
/// order, then slot order) and carry evidence neighbours for every
/// candidate endpoint; `pairs` are ascending entry-index pairs.
pub(crate) struct Work<'a> {
    pub entries: &'a [RefEntry],
    pub vocab: &'a Vocab,
    /// Entry index of a live reference, `None` when it is not in the table.
    pub index: &'a dyn Fn(ObjectId) -> Option<u32>,
    pub pairs: Vec<(u32, u32)>,
    pub blocking: BlockingStats,
}

/// The rebuild-and-filter incremental run that [`ReconState`] replaced:
/// the whole table with every entry's neighbours, every candidate pair in
/// the space, then only the pairs touching the new references. Kept as
/// the oracle the persistent state is checked against.
#[cfg(test)]
pub(crate) fn rebuild_and_filter(
    store: &mut Store,
    new_objects: &[ObjectId],
    variant: Variant,
    cfg: &ReconConfig,
) -> ReconReport {
    let start = Instant::now();
    let table = RefTable::build(store, cfg.max_fanout);
    let mut pairs = blocking::candidate_pairs(&table);
    let new_refs: std::collections::HashSet<u32> = new_objects
        .iter()
        .filter_map(|o| {
            store.object_raw(*o)?;
            table.index_of.get(&store.resolve(*o)).copied()
        })
        .collect();
    pairs.retain(|(a, b)| new_refs.contains(a) || new_refs.contains(b));
    execute_table(store, &table, pairs, variant, cfg, start)
}

/// [`execute`] over a whole reference table.
fn execute_table(
    store: &mut Store,
    table: &RefTable,
    pairs: Vec<(u32, u32)>,
    variant: Variant,
    cfg: &ReconConfig,
    start: Instant,
) -> ReconReport {
    let blocking = BlockingStats::compute(table, &pairs);
    let work = Work {
        entries: &table.entries,
        vocab: &table.vocab,
        index: &|o| table.index_of.get(&o).copied(),
        pairs,
        blocking,
    };
    execute(store, work, variant, cfg, start)
}

/// Run the variant's decision procedure over a working table and apply
/// the resulting merges to the store.
pub(crate) fn execute(
    store: &mut Store,
    work: Work<'_>,
    variant: Variant,
    cfg: &ReconConfig,
    start: Instant,
) -> ReconReport {
    let Work {
        entries,
        vocab,
        index,
        pairs,
        blocking: blocking_stats,
    } = work;
    // Base attribute scores over singleton pools.
    let base = score_pairs(entries, vocab, &pairs, cfg.threads);

    let n = entries.len();
    let mut uf = UnionFind::new(n);
    let mut iterations = 0usize;
    let mut memo_hits = 0usize;
    let mut pooled_scores = 0usize;
    let mut verdict_hits = 0usize;
    let mut shard_count = 0usize;

    // User feedback: resolve must-link and cannot-link pairs to reference
    // indices. Constraints naming non-reconcilable or unknown objects are
    // ignored.
    let ref_index = |o: ObjectId| -> Option<u32> {
        store.object_raw(o)?; // unknown ids are ignored, not fatal
        index(store.resolve(o))
    };
    let cannot: Vec<(u32, u32)> = cfg
        .cannot_link
        .iter()
        .filter_map(|&(a, b)| Some((ref_index(a)?, ref_index(b)?)))
        .collect();
    let must_refs: Vec<(u32, u32)> = cfg
        .must_link
        .iter()
        .filter_map(|&(a, b)| Some((ref_index(a)?, ref_index(b)?)))
        .collect();
    // Seed must-link pairs into the global clustering. Sharded variants
    // additionally seed them per shard (where member pooling happens); the
    // global unions cover components with no candidate pairs at all.
    for &(a, b) in &must_refs {
        uf.union(a as usize, b as usize);
    }
    // A union of (a, b) is allowed iff it would not connect any
    // cannot-link pair.
    let allowed = |uf: &mut UnionFind, a: usize, b: usize, cannot: &[(u32, u32)]| -> bool {
        if cannot.is_empty() {
            return true;
        }
        let (ra, rb) = (uf.find(a), uf.find(b));
        for &(x, y) in cannot {
            let (rx, ry) = (uf.find(x as usize), uf.find(y as usize));
            if (rx == ra && ry == rb) || (rx == rb && ry == ra) {
                return false;
            }
        }
        true
    };

    let weights = channel_weights(store);

    match variant {
        Variant::AttrOnly => {
            for (ci, &(a, b)) in pairs.iter().enumerate() {
                iterations += 1;
                if base[ci] >= cfg.threshold && allowed(&mut uf, a as usize, b as usize, &cannot) {
                    uf.union(a as usize, b as usize);
                }
            }
        }
        Variant::Context => {
            // Static association evidence: a neighbour pair counts as
            // "matching" when its *attribute* score is conclusive — no
            // decisions feed back.
            let mut pair_index: HashMap<(u32, u32), usize> = HashMap::new();
            for (ci, &p) in pairs.iter().enumerate() {
                pair_index.insert(p, ci);
            }
            let strong = |x: u32, y: u32| -> bool {
                if x == y {
                    return true;
                }
                let key = if x < y { (x, y) } else { (y, x) };
                pair_index
                    .get(&key)
                    .map(|&ci| base[ci] >= 0.9)
                    .unwrap_or(false)
            };
            for (ci, &(a, b)) in pairs.iter().enumerate() {
                iterations += 1;
                let ev = evidence(entries, &weights, a, b, &strong);
                let combined = combine(base[ci], ev, cfg);
                if combined >= cfg.threshold && allowed(&mut uf, a as usize, b as usize, &cannot) {
                    uf.union(a as usize, b as usize);
                }
            }
        }
        Variant::Propagation | Variant::Full => {
            // Partition into independent worklist shards: candidate edges,
            // the evidence closure (every neighbour a pair's evidence can
            // consult, i.e. both sides of every channel both endpoints
            // populate), and must-link edges. See `shard` for why this
            // closure makes shards fully independent.
            let shards = shard::partition(n, &pairs, &must_refs, |a, b, sink| {
                let ea = &entries[a as usize];
                let eb = &entries[b as usize];
                for (ch, na) in &ea.neighbors {
                    let nb = eb.channel(*ch);
                    if na.is_empty() || nb.is_empty() {
                        continue;
                    }
                    for &x in na {
                        sink(x);
                    }
                    for &y in nb {
                        sink(y);
                    }
                }
            });
            shard_count = shards.len();
            let oracle = TableOracle {
                entries,
                vocab,
                weights: &weights,
                base: &base,
                pairs: &pairs,
                cfg,
                enrich: variant.enriches(),
            };
            let outcomes = run_shards(&shards, &pairs, &must_refs, &cannot, &oracle, cfg.threads);
            for o in outcomes {
                iterations += o.iterations;
                memo_hits += o.memo_hits;
                pooled_scores += o.pooled_scores;
                verdict_hits += o.verdict_hits;
                for cl in o.clusters {
                    for &x in &cl[1..] {
                        uf.union(cl[0] as usize, x as usize);
                    }
                }
            }
        }
    }

    let elapsed = start.elapsed();

    // Materialize clusters and apply merges to the store.
    let mut clusters = Vec::new();
    let mut merge_pairs: Vec<(ObjectId, ObjectId)> = Vec::new();
    for cluster in uf.clusters() {
        if cluster.len() < 2 {
            continue;
        }
        let mut objs: Vec<ObjectId> = cluster.iter().map(|&i| entries[i].obj).collect();
        objs.sort();
        for &loser in &objs[1..] {
            merge_pairs.push((objs[0], loser));
        }
        clusters.push(objs);
    }
    let merges = store
        .merge_all(&merge_pairs)
        .expect("reconciliation merges are class-consistent by construction");

    ReconReport {
        variant,
        refs: blocking_stats.refs,
        examined: entries.len(),
        candidates: pairs.len(),
        blocking: blocking_stats,
        merges,
        iterations,
        shards: shard_count,
        memo_hits,
        pooled_scores,
        verdict_hits,
        elapsed,
        clusters,
    }
}

/// The production [`Oracle`]: scores from the reference table, evidence
/// over its channel graph.
struct TableOracle<'a> {
    entries: &'a [RefEntry],
    vocab: &'a Vocab,
    weights: &'a HashMap<u32, f64>,
    base: &'a [f64],
    pairs: &'a [(u32, u32)],
    cfg: &'a ReconConfig,
    enrich: bool,
}

impl Oracle for TableOracle<'_> {
    fn base(&self, ci: u32) -> f64 {
        self.base[ci as usize]
    }
    fn pooled_attr(&self, verdicts: &mut Verdicts, ci: u32, ma: &[u32], mb: &[u32]) -> f64 {
        let (a, b) = self.pairs[ci as usize];
        // Two clusters that are still the pair's own references pool the
        // same values the base score compared, so it is their pooled score.
        if ma == [a]
            && mb == [b]
            && Pool::of_entry_is_pooled(&self.entries[a as usize])
            && Pool::of_entry_is_pooled(&self.entries[b as usize])
        {
            return self.base[ci as usize];
        }
        let pa = Pool::of_members(self.entries, ma);
        let pb = Pool::of_members(self.entries, mb);
        let kind = self.entries[a as usize].kind;
        attr_score(self.vocab, kind, &pa, &pb, verdicts)
    }
    fn evidence(&self, a: u32, b: u32, root_of: &mut dyn FnMut(u32) -> u64) -> f64 {
        evidence_tokens(self.entries, self.weights, a, b, root_of)
    }
    fn combine(&self, attr: f64, ev: f64) -> f64 {
        combine(attr, ev, self.cfg)
    }
    fn threshold(&self) -> f64 {
        self.cfg.threshold
    }
    fn enrich(&self) -> bool {
        self.enrich
    }
    fn neighbors(&self, r: u32, sink: &mut dyn FnMut(u32)) {
        for x in self.entries[r as usize].all_neighbors() {
            sink(x);
        }
    }
}

/// Run every shard's worklist, across `threads` workers when it pays.
/// Outcomes come back in shard order regardless of which worker ran what,
/// so the caller's stitching is deterministic.
fn run_shards<O: Oracle + Sync>(
    shards: &[Shard],
    pairs: &[(u32, u32)],
    must: &[(u32, u32)],
    cannot: &[(u32, u32)],
    oracle: &O,
    threads: usize,
) -> Vec<ShardOutcome> {
    if threads <= 1 || shards.len() <= 1 {
        return shards
            .iter()
            .map(|s| run_shard(s, pairs, must, cannot, oracle))
            .collect();
    }
    // Largest shards first: the biggest component dominates wall-clock, so
    // it must start immediately, with small shards filling the tail.
    let mut order: Vec<usize> = (0..shards.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(shards[i].pairs.len()));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let workers = threads.min(shards.len());
    let mut slots: Vec<Option<ShardOutcome>> = Vec::new();
    slots.resize_with(shards.len(), || None);
    let per_worker: Vec<Vec<(usize, ShardOutcome)>> = std::thread::scope(|scope| {
        let (order, next) = (&order, &next);
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&si) = order.get(k) else { break };
                        done.push((si, run_shard(&shards[si], pairs, must, cannot, oracle)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard workers do not panic"))
            .collect()
    });
    for (si, outcome) in per_worker.into_iter().flatten() {
        slots[si] = Some(outcome);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every shard ran exactly once"))
        .collect()
}

/// Combined score: attribute similarity lifted toward 1 by association
/// evidence.
fn combine(attr: f64, ev: f64, cfg: &ReconConfig) -> f64 {
    (attr + cfg.evidence_weight * ev * (1.0 - attr)).clamp(0.0, 1.0)
}

/// Association evidence under the current clustering (propagation path):
/// per shared channel, resolve both neighbour lists to opaque cluster
/// tokens via `root_of`, then count matches — a direct scan for tiny
/// channels, a sorted-token intersection for large ones (O(n log n)
/// instead of the quadratic blow-up).
fn evidence_tokens(
    entries: &[RefEntry],
    weights: &HashMap<u32, f64>,
    a: u32,
    b: u32,
    root_of: &mut dyn FnMut(u32) -> u64,
) -> f64 {
    let ea = &entries[a as usize];
    let eb = &entries[b as usize];
    let mut ev = 0.0f64;
    let mut roots_b: Vec<u64> = Vec::new();
    for (ch, na) in &ea.neighbors {
        let nb = eb.channel(*ch);
        if na.is_empty() || nb.is_empty() {
            continue;
        }
        // Typical neighbour lists are tiny (one venue, a few co-authors);
        // a direct scan beats sorting there. Large channels use the sorted
        // token intersection to avoid the quadratic blow-up.
        let mut shared = 0usize;
        if na.len() * nb.len() <= 64 {
            for &x in na {
                let rx = root_of(x);
                for &y in nb {
                    if y == x || root_of(y) == rx {
                        shared += 1;
                        break;
                    }
                }
            }
        } else {
            roots_b.clear();
            for &y in nb {
                roots_b.push(root_of(y));
            }
            roots_b.sort_unstable();
            for &x in na {
                if roots_b.binary_search(&root_of(x)).is_ok() {
                    shared += 1;
                }
            }
        }
        if shared == 0 {
            continue;
        }
        let frac = shared as f64 / na.len().min(nb.len()) as f64;
        let default = if ch & (1 << 24) != 0 { 0.25 } else { 0.4 };
        let w = weights.get(ch).copied().unwrap_or(default);
        ev = 1.0 - (1.0 - ev) * (1.0 - w * frac);
    }
    ev
}

/// Association evidence for a pair: per shared channel, the fraction of the
/// smaller neighbour set that matches the other side (under `same`),
/// weighted by the channel's evidential strength and combined noisy-or.
fn evidence(
    entries: &[RefEntry],
    weights: &HashMap<u32, f64>,
    a: u32,
    b: u32,
    same: &dyn Fn(u32, u32) -> bool,
) -> f64 {
    let ea = &entries[a as usize];
    let eb = &entries[b as usize];
    let mut ev = 0.0f64;
    for (ch, na) in &ea.neighbors {
        let nb = eb.channel(*ch);
        if na.is_empty() || nb.is_empty() {
            continue;
        }
        let mut shared = 0usize;
        for &x in na {
            if nb.iter().any(|&y| same(x, y)) {
                shared += 1;
            }
        }
        if shared == 0 {
            continue;
        }
        let frac = shared as f64 / na.len().min(nb.len()) as f64;
        // Unlisted direct channels default to 0.4; unlisted two-hop
        // channels (e.g. correspondence through messages) are weaker —
        // people e-mail overlapping circles all the time.
        let default = if ch & (1 << 24) != 0 { 0.25 } else { 0.4 };
        let w = weights.get(ch).copied().unwrap_or(default);
        ev = 1.0 - (1.0 - ev) * (1.0 - w * frac);
    }
    ev
}

/// Evidential strength per channel. Sharing a venue is weak (every SIGMOD
/// paper shares it); sharing an author or a publication is strong.
fn channel_weights(store: &Store) -> HashMap<u32, f64> {
    use crate::refs::direct_channel;
    let model = store.model();
    let mut w = HashMap::new();
    let mut set = |name: &str, fwd: f64, inv: f64| {
        if let Some(a) = model.assoc(name) {
            w.insert(direct_channel(a.0, false), fwd);
            w.insert(direct_channel(a.0, true), inv);
        }
    };
    // Two *publication* references sharing an author is weak (the same
    // author writes many papers); two *person* references sharing a merged
    // publication is strong (an author list names each person once).
    set(an::AUTHORED_BY, 0.15, 0.85);
    set(an::PUBLISHED_IN, 0.15, 0.9); // pubs sharing a venue (weak) / venues sharing pubs (strong)
    set(an::WORKS_FOR, 0.25, 0.7); // people sharing an employer (weak-ish)
    set(an::CITES, 0.5, 0.5);
    set(an::MENTIONS, 0.3, 0.3);
    set(an::ATTENDEE, 0.4, 0.4);
    // Two-hop channels. The co-author channel (person → publication →
    // person) carries the strongest signal in the paper's PIM domain; hops
    // landing on venues or organizations are nearly vacuous and must not
    // lift ambiguous pairs on their own. Unlisted hop channels default to
    // 0.4 via the lookup fallback in `evidence`.
    {
        use crate::refs::hop_channel;
        let mut hop = |first: &str, second: &str, weight: f64| {
            if let (Some(a), Some(b)) = (model.assoc(first), model.assoc(second)) {
                w.insert(hop_channel(a.0, b.0), weight);
            }
        };
        hop(an::AUTHORED_BY, an::AUTHORED_BY, 0.85); // co-authors
        hop(an::AUTHORED_BY, an::PUBLISHED_IN, 0.05); // shared venue via papers
        hop(an::AUTHORED_BY, an::CITES, 0.1);
        hop(an::AUTHORED_BY, an::WORKS_FOR, 0.1); // papers sharing author employers
        hop(an::PUBLISHED_IN, an::AUTHORED_BY, 0.3); // venues sharing paper authors
        hop(an::WORKS_FOR, an::WORKS_FOR, 0.25);
        hop(an::MENTIONS, an::MENTIONS, 0.2);
        hop(an::ATTENDEE, an::ATTENDEE, 0.35); // co-attendees
    }
    w
}

/// Score all candidate pairs over singleton pools, optionally in parallel.
fn score_pairs(
    entries: &[RefEntry],
    vocab: &Vocab,
    pairs: &[(u32, u32)],
    threads: usize,
) -> Vec<f64> {
    // Each worker keeps its own verdict memo for the chunk it scores.
    let score_all = |work: &[(u32, u32)], out: &mut [f64]| {
        let mut verdicts = Verdicts::default();
        for (o, &(a, b)) in out.iter_mut().zip(work) {
            let (ea, eb) = (&entries[a as usize], &entries[b as usize]);
            let (pa, pb) = (Pool::of(ea), Pool::of(eb));
            *o = attr_score(vocab, ea.kind, &pa, &pb, &mut verdicts);
        }
    };
    let mut out = vec![0.0; pairs.len()];
    if threads <= 1 || pairs.len() < 512 {
        score_all(pairs, &mut out);
        return out;
    }
    let chunk = pairs.len().div_ceil(threads);
    std::thread::scope(|s| {
        let score_all = &score_all;
        for (slot, work) in out.chunks_mut(chunk).zip(pairs.chunks(chunk)) {
            s.spawn(move || score_all(work, slot));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_extract::{
        bibtex::extract_bibtex, email::extract_mbox, vcard::extract_vcards, ExtractContext,
    };
    use semex_model::names::{attr, class};
    use semex_store::{SourceInfo, SourceKind};

    fn store_with(bib: &str, mbox: &str, vcf: &str) -> Store {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let mut ctx = ExtractContext::new(&mut st, src);
        if !bib.is_empty() {
            extract_bibtex(bib, &mut ctx).unwrap();
        }
        if !mbox.is_empty() {
            extract_mbox(mbox, &mut ctx).unwrap();
        }
        if !vcf.is_empty() {
            extract_vcards(vcf, &mut ctx).unwrap();
        }
        st
    }

    fn person_count(st: &Store) -> usize {
        st.class_count(st.model().class(class::PERSON).unwrap())
    }

    #[test]
    fn attr_only_merges_obvious_duplicates() {
        let mut st = store_with(
            "@inproceedings{a, title={T1 alpha beta}, author={Michael Carey}, booktitle={V}, year=2001}\n\
             @inproceedings{b, title={T2 gamma delta}, author={Michael J. Carey}, booktitle={V}, year=2002}",
            "",
            "",
        );
        assert_eq!(person_count(&st), 2);
        let r = reconcile(&mut st, Variant::AttrOnly, &ReconConfig::sequential());
        assert_eq!(person_count(&st), 1);
        assert_eq!(r.merges, 1);
        assert_eq!(r.clusters.len(), 1);
    }

    #[test]
    fn attr_only_leaves_ambiguous_initials_apart() {
        let mut st = store_with(
            "@inproceedings{a, title={T1 alpha beta}, author={M. Carey}, booktitle={V1}, year=2001}\n\
             @inproceedings{b, title={T2 gamma delta}, author={Michael Carey}, booktitle={V2}, year=2002}",
            "",
            "",
        );
        reconcile(&mut st, Variant::AttrOnly, &ReconConfig::sequential());
        assert_eq!(person_count(&st), 2, "initials alone must not merge");
    }

    #[test]
    fn context_uses_shared_coauthors() {
        // "M. Carey" and "Michael Carey" share a co-author who matches
        // conclusively on attributes → context evidence tips the pair.
        let bib = "@inproceedings{a, title={T1 alpha beta}, author={M. Carey and Alon Halevy}, booktitle={V1}, year=2001}\n\
                   @inproceedings{b, title={T2 gamma delta}, author={Michael Carey and Alon Halevy}, booktitle={V2}, year=2002}";
        let mut st1 = store_with(bib, "", "");
        reconcile(&mut st1, Variant::AttrOnly, &ReconConfig::sequential());
        // attr-only: Halevy merges (identical), Carey does not.
        assert_eq!(person_count(&st1), 3);

        let mut st2 = store_with(bib, "", "");
        let r = reconcile(&mut st2, Variant::Context, &ReconConfig::sequential());
        assert_eq!(
            person_count(&st2),
            2,
            "context must merge the Careys: {r:?}"
        );
    }

    #[test]
    fn propagation_chains_decisions() {
        // A two-link chain of ambiguity: the Dong pair is conclusive on
        // attributes; merging it gives the Carey pair its co-author
        // evidence; merging the Careys gives the Halevy pair *its*
        // co-author evidence. Context (static, one inference step) merges
        // the Careys but cannot reach the Halevys; propagation chains
        // through to all three.
        let bib = "@inproceedings{t1, title={T1 alpha beta}, author={M. Carey and Alon Halevy and Xin Dong}, booktitle={V1}, year=2001}\n\
                   @inproceedings{t2, title={T2 gamma delta}, author={Michael Carey and Dong, Xin}, booktitle={V2}, year=2002}\n\
                   @inproceedings{t3, title={T3 epsilon zeta}, author={Michael Carey and A. Halevy}, booktitle={V3}, year=2003}";
        // References: "M. Carey", "Michael Carey", "Alon Halevy",
        // "A. Halevy", "Xin Dong", "Dong, Xin" — three true people.
        let mut ctx_store = store_with(bib, "", "");
        reconcile(&mut ctx_store, Variant::Context, &ReconConfig::sequential());
        let after_context = person_count(&ctx_store);

        let mut prop_store = store_with(bib, "", "");
        let r = reconcile(
            &mut prop_store,
            Variant::Propagation,
            &ReconConfig::sequential(),
        );
        let after_prop = person_count(&prop_store);
        assert!(
            after_prop <= after_context,
            "propagation can only consolidate further ({after_prop} vs {after_context}); {r:?}"
        );
        assert_eq!(
            after_prop, 3,
            "Carey, Halevy and Dong all consolidate: {r:?}"
        );
        assert!(after_context > 3, "context alone must not finish the chain");
    }

    #[test]
    fn enrichment_pools_emails() {
        // Reference 1: "M. Carey" + mcarey@ibm.com (from e-mail).
        // Reference 2: "Michael Carey" + mcarey@ibm.com (vCard) — merges
        // with 1 via the shared address. Reference 3: "Michael Carey"
        // (bib, no e-mail) — ambiguous against 1, conclusive against 2;
        // after 2 and 3 merge, enrichment gives the cluster the address.
        let mbox = "From: M. Carey <mcarey@ibm.com>\nTo: someone@x.edu\nSubject: s\n\nb";
        let vcf = "BEGIN:VCARD\nFN:Michael Carey\nEMAIL:mcarey@ibm.com\nEND:VCARD\n";
        let bib =
            "@inproceedings{a, title={T1 alpha}, author={Michael Carey}, booktitle={V}, year=2001}";
        let mut st = store_with(bib, mbox, vcf);
        assert_eq!(person_count(&st), 4); // 3 Carey refs + someone@x.edu
        let r = reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
        assert_eq!(person_count(&st), 2, "{r:?}");
    }

    #[test]
    fn publications_and_venues_reconcile() {
        let bib = "@inproceedings{a, title={Adaptive federated queries over archives}, author={Ann Walker}, booktitle={International Conference on Management of Data}, year=2004}\n\
                   @inproceedings{b, title={Adaptive federated queries archives}, author={Walker, Ann}, booktitle={ICMD}, year=2004}";
        let mut st = store_with(bib, "", "");
        let model_pub = st.model().class(class::PUBLICATION).unwrap();
        let model_venue = st.model().class(class::VENUE).unwrap();
        assert_eq!(st.class_count(model_pub), 2);
        assert_eq!(st.class_count(model_venue), 2);
        reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
        assert_eq!(st.class_count(model_pub), 1);
        assert_eq!(st.class_count(model_venue), 1);
        assert_eq!(person_count(&st), 1);
    }

    #[test]
    fn merged_objects_pool_attributes_in_store() {
        let mbox = "From: Michael Carey <mcarey@ibm.com>\nTo: a@b.c\nSubject: s\n\nb";
        let vcf =
            "BEGIN:VCARD\nFN:Michael J. Carey\nEMAIL:mcarey@ibm.com\nTEL:+1-555-1234\nEND:VCARD\n";
        let mut st = store_with("", mbox, vcf);
        reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
        let c_person = st.model().class(class::PERSON).unwrap();
        let a_name = st.model().attr(attr::NAME).unwrap();
        let carey = st
            .objects_of_class(c_person)
            .find(|&p| st.object(p).strs(a_name).any(|n| n.contains("Carey")))
            .unwrap();
        let names: Vec<&str> = st.object(carey).strs(a_name).collect();
        assert!(
            names.len() >= 2,
            "both spellings survive on the merged object: {names:?}"
        );
    }

    #[test]
    fn variant_ladder_is_monotone_on_a_small_corpus() {
        let bib = "@inproceedings{a, title={Alpha beta gamma delta}, author={M. Carey and A. Halevy and Xin Dong}, booktitle={V1}, year=2001}\n\
                   @inproceedings{b, title={Epsilon zeta eta theta}, author={Michael Carey and Alon Halevy}, booktitle={V2}, year=2002}\n\
                   @inproceedings{c, title={Iota kappa lambda mu}, author={Mike Carey and Halevy, Alon and Dong, Xin}, booktitle={V1}, year=2003}";
        let mut counts = Vec::new();
        for v in Variant::ALL {
            let mut st = store_with(bib, "", "");
            reconcile(&mut st, v, &ReconConfig::sequential());
            counts.push(person_count(&st));
        }
        // More machinery ⇒ at most as many surviving person objects.
        assert!(counts.windows(2).all(|w| w[1] <= w[0]), "{counts:?}");
    }

    #[test]
    fn parallel_scoring_matches_sequential() {
        let bib: String = (0..40)
            .map(|i| {
                format!(
                    "@inproceedings{{k{i}, title={{Paper number {i} on caches}}, author={{Person{} Name{}}}, booktitle={{V{}}}, year={}}}\n",
                    i % 7, i % 7, i % 3, 2000 + (i % 5)
                )
            })
            .collect();
        let mut st1 = store_with(&bib, "", "");
        let mut st2 = store_with(&bib, "", "");
        let seq = reconcile(&mut st1, Variant::Full, &ReconConfig::sequential());
        let par = reconcile(
            &mut st2,
            Variant::Full,
            &ReconConfig {
                threads: 4,
                ..ReconConfig::default()
            },
        );
        assert_eq!(seq.merges, par.merges);
        assert_eq!(seq.clusters, par.clusters);
        assert_eq!(seq.iterations, par.iterations, "same per-shard work");
        assert_eq!(seq.shards, par.shards);
    }

    #[test]
    fn sharded_runs_report_shards_and_memo() {
        // Two independent families of duplicates → at least two shards.
        let bib = "@inproceedings{a, title={T1 alpha beta}, author={Michael Carey}, booktitle={V1}, year=2001}\n\
                   @inproceedings{b, title={T2 gamma delta}, author={Michael J. Carey}, booktitle={V1}, year=2002}\n\
                   @inproceedings{c, title={T3 epsilon zeta}, author={Laura Bennett}, booktitle={V2}, year=2003}\n\
                   @inproceedings{d, title={T4 eta theta}, author={Laura J. Bennett}, booktitle={V2}, year=2004}";
        let mut st = store_with(bib, "", "");
        let r = reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
        assert!(
            r.shards >= 2,
            "disjoint families shard independently: {r:?}"
        );
        assert!(
            r.pooled_scores >= 1,
            "enrichment re-scores over pools: {r:?}"
        );
        let mut st2 = store_with(bib, "", "");
        let attr = reconcile(&mut st2, Variant::AttrOnly, &ReconConfig::sequential());
        assert_eq!(attr.shards, 0, "non-propagating variants do not shard");
        assert_eq!(attr.memo_hits, 0);
        assert_eq!((attr.pooled_scores, attr.verdict_hits), (0, 0));
    }

    #[test]
    fn cannot_link_vetoes_transitively() {
        // Two identical-name references would merge; the user says no.
        let bib = "@inproceedings{a, title={T1 alpha beta}, author={Michael Carey}, booktitle={V1}, year=2001}\n\
                   @inproceedings{b, title={T2 gamma delta}, author={Michael J. Carey}, booktitle={V2}, year=2002}";
        let mut st = store_with(bib, "", "");
        let c = st.model().class(class::PERSON).unwrap();
        let people: Vec<_> = st.objects_of_class(c).collect();
        assert_eq!(people.len(), 2);
        let cfg = ReconConfig {
            cannot_link: vec![(people[0], people[1])],
            ..ReconConfig::sequential()
        };
        let r = reconcile(&mut st, Variant::Full, &cfg);
        assert_eq!(person_count(&st), 2, "{r:?}");
    }

    #[test]
    fn must_link_seeds_and_propagates() {
        // "Q. Carey" and "Zed Nobody" would never merge on their own; the
        // user asserts they are the same, and that seed survives into the
        // final clustering.
        let bib = "@inproceedings{a, title={T1 alpha beta}, author={Q. Carey}, booktitle={V1}, year=2001}\n\
                   @inproceedings{b, title={T2 gamma delta}, author={Zed Nobody}, booktitle={V2}, year=2002}";
        let mut st = store_with(bib, "", "");
        let c = st.model().class(class::PERSON).unwrap();
        let people: Vec<_> = st.objects_of_class(c).collect();
        let cfg = ReconConfig {
            must_link: vec![(people[0], people[1])],
            ..ReconConfig::sequential()
        };
        reconcile(&mut st, Variant::Full, &cfg);
        assert_eq!(person_count(&st), 1);
    }

    #[test]
    fn constraints_on_unknown_objects_are_ignored() {
        let bib =
            "@inproceedings{a, title={T1 alpha}, author={Solo Author}, booktitle={V}, year=2001}";
        let mut st = store_with(bib, "", "");
        let cfg = ReconConfig {
            must_link: vec![(semex_store::ObjectId(9999), semex_store::ObjectId(10000))],
            cannot_link: vec![(semex_store::ObjectId(9999), semex_store::ObjectId(10000))],
            ..ReconConfig::sequential()
        };
        let r = reconcile(&mut st, Variant::Full, &cfg);
        assert_eq!(r.merges, 0);
    }

    #[test]
    fn empty_store_is_fine() {
        let mut st = Store::with_builtin_model();
        let r = reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
        assert_eq!(r.refs, 0);
        assert_eq!(r.merges, 0);
        assert!(r.clusters.is_empty());
    }
}
