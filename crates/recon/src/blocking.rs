//! Blocking: cheap candidate-pair generation.
//!
//! Comparing all reference pairs is quadratic; blocking buckets references
//! by cheap keys so only within-bucket pairs are scored. Keys are chosen so
//! that true matches almost always share at least one bucket:
//!
//! * **Person** — normalized family name, its Soundex code, and each e-mail
//!   local part and full address;
//! * **Publication** — the two longest title tokens and a normalized title
//!   prefix;
//! * **Venue** — every identity token, the lowercased abbreviation, and the
//!   token initialism (so `"Very Large Data Bases"` buckets with `VLDB`);
//! * **Organization** — every name token.
//!
//! Buckets larger than [`MAX_BUCKET`] are dropped (a key shared by hundreds
//! of references carries no discriminative power and would reintroduce the
//! quadratic blow-up).
//!
//! Keys never materialize as owned strings on the hot path: [`visit_keys`]
//! streams `(namespace, body)` pairs out of reused scratch buffers, each key
//! is folded to a 64-bit FNV-1a fingerprint, and buckets are formed by
//! sorting one flat `(class, hash, ref)` row table — no per-key `String`,
//! no hash map of owned keys, no `HashSet` of pairs.

use crate::refs::{RefEntry, RefTable, Vocab};
use semex_similarity::venue::for_each_venue_token;
use semex_similarity::{lowercase_into, soundex, token_spans};
use std::collections::HashMap;

/// Buckets larger than this are considered non-discriminative and skipped.
pub const MAX_BUCKET: usize = 256;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a fingerprint of `namespace ++ body` — the same bytes the owned
/// string key would hold. A 64-bit collision across a class's key space is
/// vanishingly unlikely, and its worst case is one spurious candidate pair
/// that still has to clear the scorer, so blocking stays sound.
pub(crate) fn key_hash(ns: &str, body: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in ns.as_bytes().iter().chain(body.as_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Generate candidate pairs `(a, b)` with `a < b`, both of the same class.
pub fn candidate_pairs(table: &RefTable) -> Vec<(u32, u32)> {
    // One row per (reference, distinct key): sorting the flat table groups
    // same-class same-key rows into adjacent runs — the buckets.
    let mut rows: Vec<(u16, u64, u32)> = Vec::new();
    let mut hashes: Vec<u64> = Vec::new();
    for (i, e) in table.entries.iter().enumerate() {
        key_hashes(&table.vocab, e, &mut hashes);
        for &h in &hashes {
            rows.push((e.class.0, h, i as u32));
        }
    }
    rows.sort_unstable();
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for bucket in rows.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
        if bucket.len() < 2 || bucket.len() > MAX_BUCKET {
            continue;
        }
        for (x, &(_, _, a)) in bucket.iter().enumerate() {
            for &(_, _, b) in &bucket[x + 1..] {
                pairs.push(if a < b { (a, b) } else { (b, a) });
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The distinct blocking-key fingerprints of one reference, ascending,
/// into `out` (cleared first).
pub(crate) fn key_hashes(vocab: &Vocab, e: &RefEntry, out: &mut Vec<u64>) {
    out.clear();
    visit_keys(vocab, e, |ns, body| out.push(key_hash(ns, body)));
    out.sort_unstable();
    out.dedup();
}

/// Visit the blocking keys of one reference as `(namespace, body)` pairs,
/// dispatched on its [`crate::RefKind`]. Bodies may point into scratch
/// buffers that are overwritten by the next callback — hash or copy them
/// inside the closure. [`keys_for`] is the collecting wrapper.
pub fn visit_keys(vocab: &Vocab, e: &RefEntry, mut visit: impl FnMut(&str, &str)) {
    use crate::RefKind;
    let mut scratch = String::new();
    // Person-style: names parsed as people + e-mails.
    if e.kind == RefKind::Person {
        for &n in &e.names {
            if let Some(last) = &vocab.parsed_names[n as usize].last {
                visit("l:", last);
                if let Some(sx) = soundex(last) {
                    visit("sx:", &sx);
                }
            }
        }
        for em in e.emails.iter().map(|&i| vocab.emails[i as usize].as_str()) {
            visit("e:", em);
            if let Some((local, _)) = em.split_once('@') {
                if local.len() >= 3 {
                    visit("el:", local);
                }
                // Derive name-shaped keys from the local part so a bare
                // address buckets with name-only references of the same
                // person: "ann.walker" → walker; "mcarey" → carey (initial
                // stripped); "walkera" → walker (trailing initial
                // stripped). These go into the family-name namespace.
                for seg in local.split(|c: char| !c.is_ascii_alphabetic()) {
                    if seg.len() >= 3 {
                        visit("l:", seg);
                        if let Some(sx) = soundex(seg) {
                            visit("sx:", &sx);
                        }
                    }
                    if seg.len() >= 4 {
                        visit("l:", &seg[1..]);
                        visit("l:", &seg[..seg.len() - 1]);
                    }
                }
            }
        }
    }
    // Publication-style: titles. The two longest tokens (by lowercased byte
    // length, earliest wins ties) and a normalized 10-char prefix.
    let mut lowered = String::new();
    for t in e.titles.iter().map(|&i| vocab.titles[i as usize].as_str()) {
        let (mut best, mut second) = ("", "");
        let (mut best_len, mut second_len) = (0usize, 0usize);
        for tok in token_spans(t) {
            // Lowercasing never changes a char's UTF-8 length except via
            // 1:N expansions, which both paths count identically.
            let len: usize = tok
                .chars()
                .flat_map(char::to_lowercase)
                .map(char::len_utf8)
                .sum();
            if len > best_len {
                (second, second_len) = (best, best_len);
                (best, best_len) = (tok, len);
            } else if len > second_len {
                (second, second_len) = (tok, len);
            }
        }
        for tok in [best, second] {
            if !tok.is_empty() {
                lowercase_into(tok, &mut scratch);
                visit("tt:", &scratch);
            }
        }
        lowercase_into(t, &mut lowered);
        scratch.clear();
        scratch.extend(lowered.chars().filter(|c| c.is_alphanumeric()).take(10));
        if !scratch.is_empty() {
            visit("tp:", &scratch);
        }
    }
    // Venue-style: identity tokens + abbreviations + initialism.
    // Organizations and user-defined classes block on name tokens too.
    if matches!(
        e.kind,
        RefKind::Venue | RefKind::Organization | RefKind::Other
    ) {
        for n in e.names.iter().map(|&i| vocab.names[i as usize].as_str()) {
            for_each_venue_token(n, |tok| visit("vt:", tok));
            lowered.clear();
            for tok in token_spans(n) {
                lowercase_into(tok, &mut scratch);
                if matches!(scratch.as_str(), "of" | "the" | "on" | "and" | "in" | "for") {
                    continue;
                }
                if let Some(c) = scratch.chars().next() {
                    lowered.push(c);
                }
            }
            if lowered.len() >= 2 {
                // Same namespace as plain tokens so an abbreviation
                // reference ("ICMD") buckets with the spelt-out name.
                visit("vt:", &lowered);
            }
        }
        for a in e
            .abbrevs
            .iter()
            .map(|&i| vocab.abbrevs[i as usize].as_str())
        {
            lowercase_into(a, &mut scratch);
            visit("vt:", &scratch);
        }
    }
}

/// The blocking keys of one reference as owned strings — a convenience
/// wrapper over [`visit_keys`] for diagnostics and tests.
pub fn keys_for(vocab: &Vocab, e: &RefEntry) -> Vec<String> {
    let mut keys = Vec::new();
    visit_keys(vocab, e, |ns, body| keys.push(format!("{ns}{body}")));
    keys
}

/// Summary of a blocking run, reported by experiments (pairs considered vs.
/// the quadratic worst case).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockingStats {
    /// References in the table.
    pub refs: usize,
    /// Candidate pairs emitted.
    pub pairs: usize,
    /// All same-class pairs (the quadratic alternative).
    pub exhaustive_pairs: usize,
}

impl BlockingStats {
    /// Compute stats for a table and its candidate set.
    pub fn compute(table: &RefTable, pairs: &[(u32, u32)]) -> BlockingStats {
        let mut per_class: HashMap<u16, usize> = HashMap::new();
        for e in &table.entries {
            *per_class.entry(e.class.0).or_insert(0) += 1;
        }
        BlockingStats::of_counts(per_class.into_values(), pairs.len())
    }

    /// Stats from per-class reference counts and a candidate count.
    pub(crate) fn of_counts(per_class: impl Iterator<Item = usize>, pairs: usize) -> BlockingStats {
        let (mut refs, mut exhaustive) = (0, 0);
        for n in per_class {
            refs += n;
            exhaustive += n * n.saturating_sub(1) / 2;
        }
        BlockingStats {
            refs,
            pairs,
            exhaustive_pairs: exhaustive,
        }
    }

    /// Fraction of the quadratic pair space actually scored.
    pub fn reduction(&self) -> f64 {
        if self.exhaustive_pairs == 0 {
            return 0.0;
        }
        self.pairs as f64 / self.exhaustive_pairs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_extract::{bibtex::extract_bibtex, ExtractContext};
    use semex_store::{SourceInfo, SourceKind, Store};
    use std::collections::HashSet;

    fn table_from_bib(bib: &str) -> RefTable {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("b", SourceKind::Bibliography));
        let mut ctx = ExtractContext::new(&mut st, src);
        extract_bibtex(bib, &mut ctx).unwrap();
        RefTable::build(&st, 64)
    }

    #[test]
    fn matching_references_share_buckets() {
        let t = table_from_bib(
            "@inproceedings{a, title={Adaptive Reconciliation of References}, author={Dong, Xin}, booktitle={SIGMOD}, year=2004}\n\
             @inproceedings{b, title={Adaptive Reconciliation for References}, author={X. Dong}, booktitle={ACM SIGMOD}, year=2004}",
        );
        let pairs = candidate_pairs(&t);
        // The two title references, the two Dong references and the two
        // venue references must each appear as a candidate.
        let mut classes_covered: HashSet<u16> = HashSet::new();
        for (a, b) in &pairs {
            let ea = &t.entries[*a as usize];
            let eb = &t.entries[*b as usize];
            assert_eq!(ea.class, eb.class, "pairs are within-class");
            classes_covered.insert(ea.class.0);
        }
        assert_eq!(classes_covered.len(), 3, "person, publication, venue");
    }

    #[test]
    fn unrelated_references_not_paired() {
        let t = table_from_bib(
            "@inproceedings{a, title={Streaming joins}, author={Ann Walker}, booktitle={VLDB}, year=2001}\n\
             @inproceedings{b, title={Ontology caches}, author={Bob Fisher}, booktitle={CIDR}, year=2003}",
        );
        let pairs = candidate_pairs(&t);
        // Walker/Fisher, the two unrelated titles and VLDB/CIDR share no key.
        assert!(pairs.is_empty(), "got {pairs:?}");
    }

    #[test]
    fn soundex_key_bridges_typos() {
        let t = table_from_bib(
            "@inproceedings{a, title={T one alpha}, author={Alon Halevy}, booktitle={X}, year=2001}\n\
             @inproceedings{b, title={T two beta}, author={Alon Halevi}, booktitle={Y}, year=2002}",
        );
        let pairs = candidate_pairs(&t);
        let person_pair = pairs.iter().any(|(a, b)| {
            !t.entries[*a as usize].names.is_empty()
                && !t.entries[*b as usize].names.is_empty()
                && t.entries[*a as usize].titles.is_empty()
                && t.entries[*b as usize].titles.is_empty()
        });
        assert!(person_pair, "Halevy/Halevi must be candidates via Soundex");
    }

    #[test]
    fn hashed_buckets_match_string_buckets() {
        // Reference implementation: bucket by owned (class, key-string);
        // the hashed row table must produce the identical pair set.
        let t = table_from_bib(
            "@inproceedings{a, title={Adaptive Reconciliation of References}, author={Dong, Xin and Halevy, Alon}, booktitle={Proceedings of the 24th ACM SIGMOD Conference}, year=2004}\n\
             @inproceedings{b, title={Adaptive Reconciliation for References}, author={X. Dong}, booktitle={SIGMOD}, year=2004}\n\
             @inproceedings{c, title={Streaming joins}, author={Ann Walker and A. Halevy}, booktitle={Very Large Data Bases}, year=2001}\n\
             @inproceedings{d, title={Streaming joins redux}, author={ann.walker@x.edu}, booktitle={VLDB}, year=2002}",
        );
        let mut buckets: HashMap<(u16, String), Vec<u32>> = HashMap::new();
        for (i, e) in t.entries.iter().enumerate() {
            let keys: HashSet<String> = keys_for(&t.vocab, e).into_iter().collect();
            for k in keys {
                buckets.entry((e.class.0, k)).or_default().push(i as u32);
            }
        }
        let mut expect: HashSet<(u32, u32)> = HashSet::new();
        for ((_, _), mut members) in buckets {
            members.sort_unstable();
            if members.len() < 2 || members.len() > MAX_BUCKET {
                continue;
            }
            for (x, &a) in members.iter().enumerate() {
                for &b in &members[x + 1..] {
                    expect.insert(if a < b { (a, b) } else { (b, a) });
                }
            }
        }
        let mut expect: Vec<(u32, u32)> = expect.into_iter().collect();
        expect.sort_unstable();
        assert!(!expect.is_empty(), "fixture must produce candidates");
        assert_eq!(candidate_pairs(&t), expect);
    }

    #[test]
    fn stats_measure_reduction() {
        let t = table_from_bib(
            "@inproceedings{a, title={Adaptive things}, author={A One and B Two and C Three}, booktitle={V}, year=2001}",
        );
        let pairs = candidate_pairs(&t);
        let stats = BlockingStats::compute(&t, &pairs);
        assert_eq!(stats.refs, 5);
        assert!(stats.reduction() <= 1.0);
    }
}
