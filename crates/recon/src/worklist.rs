//! The per-shard propagation worklist.
//!
//! [`run_shard`] replays the engine's dependency-graph fixed point over one
//! [`Shard`](crate::shard::Shard): a FIFO of candidate evaluations with
//! merge-triggered re-activation, a shard-local union-find and members
//! table, and a pooled-attribute-score memo. Scoring is abstracted behind
//! [`Oracle`] so the worklist can be driven by the real reference table or
//! by a test double.
//!
//! Local state is index-mapped: shard references get dense local indices in
//! ascending global order, and the local union-find mirrors exactly the
//! global one restricted to the shard (same operation order, same sizes,
//! same union-by-size tie-breaks), so a sequential run over shards in order
//! is operation-for-operation the same computation the unsharded engine
//! performed — and a parallel run over the same shards is byte-identical to
//! the sequential one, because shards share no state at all.

use crate::score::Verdicts;
use crate::shard::Shard;
use crate::UnionFind;
use std::collections::VecDeque;

/// Scoring and graph callbacks the worklist needs from the engine.
///
/// `root_of` in [`Oracle::evidence`] maps a *global* reference index to an
/// opaque cluster token: two references get the same token iff they are
/// currently clustered together. Out-of-shard references (which, by the
/// partition closure, evidence never actually consults) map to a singleton
/// token derived from the reference itself.
pub(crate) trait Oracle {
    /// Singleton-pool attribute score of candidate `ci` (global index).
    fn base(&self, ci: u32) -> f64;
    /// Pooled attribute score of candidate `ci` over the two clusters'
    /// member lists (global reference indices, in merge order). `verdicts`
    /// is the shard's memo, kept across calls and dropped with the shard.
    fn pooled_attr(&self, verdicts: &mut Verdicts, ci: u32, ma: &[u32], mb: &[u32]) -> f64;
    /// Association evidence for the pair `(a, b)` under the clustering
    /// described by `root_of`.
    fn evidence(&self, a: u32, b: u32, root_of: &mut dyn FnMut(u32) -> u64) -> f64;
    /// Combine an attribute score with association evidence.
    fn combine(&self, attr: f64, ev: f64) -> f64;
    /// Merge threshold.
    fn threshold(&self) -> f64;
    /// Whether clusters pool attributes (reference enrichment).
    fn enrich(&self) -> bool;
    /// Every evidence neighbour of global reference `r`, any channel.
    fn neighbors(&self, r: u32, sink: &mut dyn FnMut(u32));
}

/// What one shard's worklist produced.
pub(crate) struct ShardOutcome {
    /// Candidate evaluations, including re-runs.
    pub iterations: usize,
    /// Pooled-score memo hits (evaluations that skipped pooling + scoring).
    pub memo_hits: usize,
    /// Pooled attribute scores computed.
    pub pooled_scores: usize,
    /// Verdict-memo hits inside those scores.
    pub verdict_hits: usize,
    /// Multi-member clusters, as ascending global reference indices.
    pub clusters: Vec<Vec<u32>>,
}

/// Token for a reference outside the shard: high bit tags it so it can
/// never collide with a local root (which is bounded by the shard size).
fn foreign_token(g: u32) -> u64 {
    (1u64 << 32) | g as u64
}

/// Run the propagation worklist over one shard. `pairs` is the global
/// candidate list (the shard selects into it); `must` and `cannot` are the
/// resolved global constraint pairs — pairs not fully inside the shard are
/// ignored (the partition puts both endpoints of every effective constraint
/// in the same component; a cannot-link spanning two shards can never veto
/// a merge, since merges never cross shards).
pub(crate) fn run_shard<O: Oracle>(
    shard: &Shard,
    pairs: &[(u32, u32)],
    must: &[(u32, u32)],
    cannot: &[(u32, u32)],
    oracle: &O,
) -> ShardOutcome {
    let m = shard.refs.len();
    let k = shard.pairs.len();
    // Shard references are ascending, so a global index's local one is its
    // position: a binary search, cheaper than hashing on this hot path.
    let local = |g: u32| -> Option<usize> { shard.refs.binary_search(&g).ok() };

    let mut uf = UnionFind::new(m);
    // Members hold *global* indices so pooled scoring needs no translation;
    // merge order (root keeps its list, loser's list is appended) matches
    // the unsharded engine exactly.
    let mut members: Vec<Vec<u32>> = shard.refs.iter().map(|&g| vec![g]).collect();

    // Cluster-version counters for the memo: bumped whenever a cluster's
    // member list changes, so a memoized score is valid iff both endpoint
    // roots still carry the version it was computed under.
    let mut version: Vec<u32> = vec![0; m];
    let mut next_version: u32 = 0;

    // Seed must-link pairs in configuration order, replicating the global
    // engine's members motion.
    for &(ga, gb) in must {
        let (Some(la), Some(lb)) = (local(ga), local(gb)) else {
            continue;
        };
        let (ra, rb) = (uf.find(la), uf.find(lb));
        if ra != rb {
            uf.union(ra, rb);
            let root = uf.find(ra);
            let other = if root == ra { rb } else { ra };
            let moved = std::mem::take(&mut members[other]);
            members[root].extend(moved);
            next_version += 1;
            version[root] = next_version;
        }
    }

    // Constraint pairs with both endpoints in the shard, as local indices.
    let cannot_local: Vec<(usize, usize)> = cannot
        .iter()
        .filter_map(|&(x, y)| Some((local(x)?, local(y)?)))
        .collect();
    let allowed = |uf: &mut UnionFind, a: usize, b: usize| -> bool {
        if cannot_local.is_empty() {
            return true;
        }
        let (ra, rb) = (uf.find(a), uf.find(b));
        for &(x, y) in &cannot_local {
            let (rx, ry) = (uf.find(x), uf.find(y));
            if (rx == ra && ry == rb) || (rx == rb && ry == ra) {
                return false;
            }
        }
        true
    };

    // Local incidence: shard ref → shard-local candidate queue ids, in
    // ascending global candidate order (shard.pairs is ascending).
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); m];
    for (qi, &ci) in shard.pairs.iter().enumerate() {
        let (a, b) = pairs[ci as usize];
        incident[local(a).expect("candidate endpoint in shard")].push(qi as u32);
        incident[local(b).expect("candidate endpoint in shard")].push(qi as u32);
    }

    let mut queue: VecDeque<u32> = (0..k as u32).collect();
    let mut queued = vec![true; k];
    let mut decided = vec![false; k];
    // Memo entries: (root_a, version_a, root_b, version_b, score).
    type MemoEntry = (u32, u32, u32, u32, f64);
    let mut memo: Vec<Option<MemoEntry>> = vec![None; k];
    let cap = k.saturating_mul(64).max(1024);
    let mut iterations = 0usize;
    let mut memo_hits = 0usize;
    let mut pooled_scores = 0usize;
    let mut verdicts = Verdicts::default();

    while let Some(qi) = queue.pop_front() {
        let qi = qi as usize;
        queued[qi] = false;
        if decided[qi] {
            continue;
        }
        iterations += 1;
        if iterations > cap {
            break; // safety valve; monotone merging makes this unreachable in practice
        }
        let ci = shard.pairs[qi];
        let (a, b) = pairs[ci as usize];
        let (la, lb) = (
            local(a).expect("candidate endpoint in shard"),
            local(b).expect("candidate endpoint in shard"),
        );
        if uf.same(la, lb) {
            decided[qi] = true;
            continue;
        }
        let attr = if oracle.enrich() {
            let (ra, rb) = (uf.find(la), uf.find(lb));
            let key = (ra as u32, version[ra], rb as u32, version[rb]);
            match memo[qi] {
                Some((ka, va, kb, vb, s)) if (ka, va, kb, vb) == key => {
                    memo_hits += 1;
                    s
                }
                _ => {
                    pooled_scores += 1;
                    let s = oracle.pooled_attr(&mut verdicts, ci, &members[ra], &members[rb]);
                    memo[qi] = Some((key.0, key.1, key.2, key.3, s));
                    s
                }
            }
        } else {
            oracle.base(ci)
        };
        let ev = oracle.evidence(a, b, &mut |g| match local(g) {
            Some(lg) => uf.find_const(lg) as u64,
            None => foreign_token(g),
        });
        let combined = oracle.combine(attr, ev);
        if combined < oracle.threshold() {
            continue; // may be re-activated by a future merge
        }
        if !allowed(&mut uf, la, lb) {
            decided[qi] = true; // permanently vetoed
            continue;
        }
        // Merge the clusters.
        let (ra, rb) = (uf.find(la), uf.find(lb));
        uf.union(la, lb);
        let root = uf.find(la);
        let other = if root == ra { rb } else { ra };
        let moved = std::mem::take(&mut members[other]);
        members[root].extend(moved);
        next_version += 1;
        version[root] = next_version;
        decided[qi] = true;

        // Re-activate candidates whose evidence (or pool) changed:
        // everything incident to the merged references' neighbours, and —
        // under enrichment — to the merged cluster itself.
        let mut touched: Vec<u32> = Vec::new();
        for &r in [a, b].iter() {
            oracle.neighbors(r, &mut |g| touched.push(g));
        }
        if oracle.enrich() {
            touched.extend(members[root].iter().copied());
        }
        touched.sort_unstable();
        touched.dedup();
        for t in touched {
            let Some(lt) = local(t) else {
                continue; // cross-shard neighbour: its shard owns those pairs
            };
            for &cid in &incident[lt] {
                if !queued[cid as usize] && !decided[cid as usize] {
                    queued[cid as usize] = true;
                    queue.push_back(cid);
                }
            }
        }
    }

    let clusters = uf
        .clusters()
        .into_iter()
        .filter(|c| c.len() >= 2)
        .map(|c| c.into_iter().map(|li| shard.refs[li]).collect())
        .collect();
    ShardOutcome {
        iterations,
        memo_hits,
        pooled_scores,
        verdict_hits: verdicts.hits,
        clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// An oracle over an explicit score table and neighbour graph. When
    /// `evidence_if_same` maps a candidate pair to a reference pair, the
    /// candidate gains evidence 1.0 once that reference pair shares a
    /// cluster token — enough to model propagation chains without a
    /// reference table.
    struct FixedOracle {
        base: Vec<f64>,
        evidence_if_same: HashMap<(u32, u32), (u32, u32)>,
        neighbors: Vec<Vec<u32>>,
        threshold: f64,
        enrich: bool,
    }

    impl FixedOracle {
        fn plain(base: Vec<f64>, neighbors: Vec<Vec<u32>>, enrich: bool) -> FixedOracle {
            FixedOracle {
                base,
                evidence_if_same: HashMap::new(),
                neighbors,
                threshold: 0.82,
                enrich,
            }
        }
    }

    impl Oracle for FixedOracle {
        fn base(&self, ci: u32) -> f64 {
            self.base[ci as usize]
        }
        fn pooled_attr(&self, _: &mut Verdicts, ci: u32, _ma: &[u32], _mb: &[u32]) -> f64 {
            self.base[ci as usize]
        }
        fn evidence(&self, a: u32, b: u32, root_of: &mut dyn FnMut(u32) -> u64) -> f64 {
            match self.evidence_if_same.get(&(a, b)) {
                Some(&(x, y)) if root_of(x) == root_of(y) => 1.0,
                _ => 0.0,
            }
        }
        fn combine(&self, attr: f64, ev: f64) -> f64 {
            (attr + ev).clamp(0.0, 1.0)
        }
        fn threshold(&self) -> f64 {
            self.threshold
        }
        fn enrich(&self) -> bool {
            self.enrich
        }
        fn neighbors(&self, r: u32, sink: &mut dyn FnMut(u32)) {
            for &n in &self.neighbors[r as usize] {
                sink(n);
            }
        }
    }

    fn shard_over(n: usize, pairs: &[(u32, u32)]) -> Shard {
        Shard {
            refs: (0..n as u32).collect(),
            pairs: (0..pairs.len() as u32).collect(),
        }
    }

    #[test]
    fn conclusive_pairs_merge_and_chain() {
        // 0-1 conclusive, 1-2 conclusive: one cluster of three.
        let pairs = [(0, 1), (1, 2)];
        let oracle = FixedOracle::plain(vec![0.9, 0.9], vec![vec![], vec![], vec![]], false);
        let out = run_shard(&shard_over(3, &pairs), &pairs, &[], &[], &oracle);
        assert_eq!(out.clusters, vec![vec![0, 1, 2]]);
        assert_eq!(out.iterations, 2);
    }

    #[test]
    fn below_threshold_pairs_stay_apart() {
        let pairs = [(0, 1)];
        let oracle = FixedOracle::plain(vec![0.5], vec![vec![], vec![]], false);
        let out = run_shard(&shard_over(2, &pairs), &pairs, &[], &[], &oracle);
        assert!(out.clusters.is_empty());
    }

    #[test]
    fn merges_reactivate_and_chain_through_evidence() {
        // Pair (0,1) is ambiguous alone but conclusive once 2 and 3 merge;
        // the 2-3 merge touches neighbour 0 and re-activates it.
        let pairs = [(0, 1), (2, 3)];
        let mut oracle = FixedOracle::plain(
            vec![0.7, 0.9],
            vec![vec![2], vec![3], vec![0], vec![1]],
            false,
        );
        oracle.evidence_if_same.insert((0, 1), (2, 3));
        let out = run_shard(&shard_over(4, &pairs), &pairs, &[], &[], &oracle);
        assert_eq!(out.clusters, vec![vec![0, 1], vec![2, 3]]);
        assert!(out.iterations >= 3, "pair (0,1) must be re-evaluated");
    }

    #[test]
    fn cannot_link_vetoes_and_must_link_seeds() {
        let pairs = [(0, 1), (2, 3)];
        let oracle =
            FixedOracle::plain(vec![0.9, 0.1], vec![vec![], vec![], vec![], vec![]], false);
        let out = run_shard(
            &shard_over(4, &pairs),
            &pairs,
            &[(2, 3)],
            &[(0, 1)],
            &oracle,
        );
        // 0-1 scores high but is vetoed; 2-3 scores low but is seeded.
        assert_eq!(out.clusters, vec![vec![2, 3]]);
    }

    #[test]
    fn memo_skips_unchanged_rescores() {
        // Pair (0,1) is below threshold; merging (2,3) re-activates it via
        // the neighbour graph but changes neither of its clusters, so the
        // second evaluation is a memo hit.
        let pairs = [(0, 1), (2, 3)];
        let oracle = FixedOracle::plain(
            vec![0.5, 0.9],
            // 2's merge touches neighbour 0, re-activating pair (0,1).
            vec![vec![], vec![], vec![0], vec![]],
            true,
        );
        let out = run_shard(&shard_over(4, &pairs), &pairs, &[], &[], &oracle);
        assert_eq!(out.clusters, vec![vec![2, 3]]);
        assert!(out.iterations >= 3, "pair (0,1) re-evaluated");
        assert_eq!(out.memo_hits, 1, "unchanged clusters skip rescoring");
    }

    #[test]
    fn out_of_shard_constraints_are_ignored() {
        let pairs = [(0, 1)];
        let oracle = FixedOracle::plain(vec![0.9], vec![vec![], vec![]], false);
        // Constraints naming references 7/8 (not in the shard) are no-ops.
        let out = run_shard(
            &shard_over(2, &pairs),
            &pairs,
            &[(7, 8)],
            &[(0, 7)],
            &oracle,
        );
        assert_eq!(out.clusters, vec![vec![0, 1]]);
    }
}
