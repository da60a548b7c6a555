//! Per-class attribute-similarity scoring.
//!
//! Each reconcilable class gets a comparator over *pooled* attribute values
//! (a pool is a single reference, or — under reference enrichment — the
//! union of a cluster's values). Scores live in `[0, 1]`; the engine merges
//! at [`crate::ReconConfig::threshold`], so the constants here are chosen to
//! leave genuinely ambiguous evidence (an initials-only name match, a
//! same-domain e-mail near-miss) *below* threshold, where association
//! evidence must tip the balance — the paper's central design point.
//!
//! Pools hold [`Vocab`] ids, not strings: every distinct name and address
//! is parsed once when the reference table is built, a cluster's pool
//! holds each distinct value once, and the two person comparisons that
//! pools repeat most (name against name, address against name) are
//! remembered per run in [`Verdicts`]. Every comparator is a max, an any,
//! or `years.first()` over value pairs, so none of this changes a score's
//! bits (see DESIGN.md, "Reconciliation").

use crate::refs::{RefEntry, RefKind, Vocab};
use semex_similarity::email::name_form_matches;
use semex_similarity::name::{last_names_compatible, names_compatible};
use semex_similarity::venue::venue_similarity;
use semex_similarity::{jaro_winkler, monge_elkan, normalized_damerau, title::title_similarity};
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};

#[cfg(test)]
mod oracle;

/// A pooled view of the attribute values the scorers compare, as ids into
/// the reference table's [`Vocab`].
#[derive(Debug, Clone, Default)]
pub struct Pool<'a> {
    /// Person/organization/venue names.
    pub names: Cow<'a, [u32]>,
    /// E-mail addresses.
    pub emails: Cow<'a, [u32]>,
    /// Publication titles.
    pub titles: Cow<'a, [u32]>,
    /// Venue abbreviations.
    pub abbrevs: Cow<'a, [u32]>,
    /// Publication years.
    pub years: Cow<'a, [i64]>,
}

/// Values per field a cluster pool keeps, so a runaway cluster cannot make
/// scoring quadratic.
const POOL_CAP: usize = 12;

impl<'a> Pool<'a> {
    /// The pool of one reference: every field borrows from its entry, so
    /// singleton scoring allocates nothing.
    pub fn of(e: &'a RefEntry) -> Pool<'a> {
        Pool {
            names: Cow::Borrowed(&e.names),
            emails: Cow::Borrowed(&e.emails),
            titles: Cow::Borrowed(&e.titles),
            abbrevs: Cow::Borrowed(&e.abbrevs),
            years: Cow::Borrowed(&e.years),
        }
    }

    /// Whether [`Pool::of`] an entry equals its one-member
    /// [`Pool::of_members`] pool: no field holds more values than a pool
    /// keeps, and no id repeats.
    pub fn of_entry_is_pooled(e: &RefEntry) -> bool {
        let distinct = |ids: &[u32]| {
            ids.len() <= POOL_CAP && ids.iter().enumerate().all(|(i, id)| !ids[..i].contains(id))
        };
        distinct(&e.names)
            && distinct(&e.emails)
            && distinct(&e.titles)
            && distinct(&e.abbrevs)
            && e.years.len() <= POOL_CAP
    }

    /// The pool of a cluster: the first 12 values of each field
    /// in member order, each distinct value kept once. Years keep their
    /// duplicates, since only the first one is compared.
    pub fn of_members(entries: &[RefEntry], members: &[u32]) -> Pool<'static> {
        let mut fields: [(Vec<u32>, usize); 4] = Default::default();
        let mut years = Vec::new();
        for &m in members {
            let e = &entries[m as usize];
            let values = [&e.names, &e.emails, &e.titles, &e.abbrevs];
            for ((kept, seen), from) in fields.iter_mut().zip(values) {
                for &id in from.iter().take(POOL_CAP - *seen) {
                    if !kept.contains(&id) {
                        kept.push(id);
                    }
                }
                *seen = (*seen + from.len()).min(POOL_CAP);
            }
            years.extend(e.years.iter().take(POOL_CAP - years.len()));
        }
        let [names, emails, titles, abbrevs] = fields.map(|(kept, _)| Cow::Owned(kept));
        Pool {
            names,
            emails,
            titles,
            abbrevs,
            years: Cow::Owned(years),
        }
    }
}

/// Per-run memo of the person comparisons that pools repeat: name against
/// name (keyed by the ordered id pair, since Jaro–Winkler need not be
/// symmetric to the last bit) and address against name. Owners drop it
/// when their run ends rather than clearing it, so its capacity does not
/// outlive the run.
#[derive(Debug, Default)]
pub struct Verdicts {
    names: HashMap<(u32, u32), NameVerdict>,
    cross: HashMap<(u32, u32), bool>,
    /// Lookups answered from the memo.
    pub hits: usize,
}

/// What one name pair contributes to a person score.
#[derive(Debug, Clone, Copy)]
struct NameVerdict {
    compatible: bool,
    /// The pair's name score: capped string similarity when incompatible.
    score: f64,
    /// The names cannot denote one person.
    contradiction: bool,
}

impl Verdicts {
    fn name_pair(&mut self, v: &Vocab, a: u32, b: u32) -> NameVerdict {
        match self.names.entry((a, b)) {
            Entry::Occupied(e) => {
                self.hits += 1;
                *e.get()
            }
            Entry::Vacant(e) => *e.insert(name_verdict(v, a, b)),
        }
    }

    fn email_matches_name(&mut self, v: &Vocab, email: u32, name: u32) -> bool {
        match self.cross.entry((email, name)) {
            Entry::Occupied(e) => {
                self.hits += 1;
                *e.get()
            }
            Entry::Vacant(e) => {
                *e.insert(v.addrs[email as usize].as_ref().is_some_and(|p| {
                    name_form_matches(&p.name_form, &v.parsed_names[name as usize])
                }))
            }
        }
    }
}

fn name_verdict(v: &Vocab, a: u32, b: u32) -> NameVerdict {
    let (na, nb) = (&v.names[a as usize], &v.names[b as usize]);
    let (pa, pb) = (&v.parsed_names[a as usize], &v.parsed_names[b as usize]);
    if !names_compatible(pa, pb) {
        // Spelt-out given names disagreeing on the same family name
        // ("Maria Carey" / "Michael Carey") contradict; so do two
        // spelt-out, clearly different family names ("Nicholas Rossi" /
        // "Nicholas Kowalski").
        let mut contradiction = false;
        if let (Some(fa), Some(fb)) = (&pa.first, &pb.first) {
            if fa.chars().count() > 1
                && fb.chars().count() > 1
                && pa.last.is_some()
                && pa.last == pb.last
            {
                contradiction = true;
            }
        }
        if let (Some(la), Some(lb)) = (&pa.last, &pb.last) {
            if la.chars().count() >= 3 && lb.chars().count() >= 3 && !last_names_compatible(la, lb)
            {
                contradiction = true;
            }
        }
        return NameVerdict {
            compatible: false,
            score: jaro_winkler(na, nb).min(0.4),
            contradiction,
        };
    }
    let s = match (&pa.first, &pb.first) {
        (Some(fa), Some(fb)) if fa == fb && fa.chars().count() > 1 => 0.92,
        (Some(fa), Some(fb)) if fa.chars().count() > 1 && fb.chars().count() > 1 => {
            // Nickname or typo'd given name.
            0.80 + 0.12 * jaro_winkler(fa, fb)
        }
        (Some(fa), Some(fb)) if fa.chars().count() == 1 && fb.chars().count() == 1 => {
            // Initial vs. initial ("R. Garcia" / "Garcia, R."): barely any
            // signal — could be any Garcia.
            0.72
        }
        (Some(_), Some(_)) => 0.78, // initial vs. spelt-out given name
        _ => 0.72,                  // a bare family name
    };
    NameVerdict {
        compatible: true,
        score: if pa.last == pb.last { s } else { s - 0.04 },
        contradiction: false,
    }
}

/// Similarity of two interned addresses; 0 when either does not parse.
fn email_similarity(v: &Vocab, a: u32, b: u32) -> f64 {
    match (&v.addrs[a as usize], &v.addrs[b as usize]) {
        (Some(x), Some(y)) => x.addr.similarity(&y.addr),
        _ => 0.0,
    }
}

/// Dispatch the per-class comparator.
pub fn attr_score(
    v: &Vocab,
    kind: RefKind,
    a: &Pool<'_>,
    b: &Pool<'_>,
    verdicts: &mut Verdicts,
) -> f64 {
    match kind {
        RefKind::Person => person_score(v, a, b, verdicts),
        RefKind::Publication => publication_score(v, a, b),
        RefKind::Venue => venue_score(v, a, b),
        RefKind::Organization | RefKind::Other => organization_score(v, a, b),
    }
}

/// Score two Person pools.
///
/// Tiers: shared e-mail address ⇒ 1.0; same local-part on another domain ⇒
/// 0.85–0.9; exact/nickname-compatible full names ⇒ 0.84–0.95; an
/// initials-only name match is capped at 0.78 (below the default merge
/// threshold — ambiguous on purpose); an e-mail plausibly derived from the
/// other side's name ⇒ 0.74. Incompatible names never score above 0.4.
pub fn person_score(v: &Vocab, a: &Pool<'_>, b: &Pool<'_>, verdicts: &mut Verdicts) -> f64 {
    // E-mail evidence.
    let mut best: f64 = 0.0;
    let mut email_hint: f64 = 0.0;
    for &ea in a.emails.iter() {
        for &eb in b.emails.iter() {
            let s = email_similarity(v, ea, eb);
            if s >= 1.0 {
                return 1.0;
            }
            email_hint = email_hint.max(s);
            // Same local part on another domain is weak: "ann@x.edu" /
            // "ann@y.org" are usually two different Anns. Names plus very
            // strong association evidence must corroborate.
            best = best.max(if s >= 0.8 { 0.70 } else { 0.7 * s });
        }
    }

    // Name evidence, with *negative* evidence: two spelt-out given names
    // that disagree (Maria vs. Michael) on compatible family names
    // contradict — the references cannot denote the same person, no matter
    // how much association evidence accumulates.
    let mut name_best: f64 = 0.0;
    let mut any_compatible = false;
    let mut contradiction = false;
    for &na in a.names.iter() {
        for &nb in b.names.iter() {
            let verdict = verdicts.name_pair(v, na, nb);
            name_best = name_best.max(verdict.score);
            any_compatible |= verdict.compatible;
            contradiction |= verdict.contradiction;
        }
    }
    best = best.max(name_best);

    // Cross evidence: an address derived from the other side's name. On
    // its own it is suggestive (0.74); combined with an agreeing name it
    // corroborates an otherwise ambiguous initial-form match.
    if !any_compatible || name_best < 0.92 {
        let mut cross = |emails: &[u32], names: &[u32]| {
            emails
                .iter()
                .any(|&e| names.iter().any(|&n| verdicts.email_matches_name(v, e, n)))
        };
        if cross(&a.emails, &b.names) || cross(&b.emails, &a.names) {
            best = best.max(0.74);
        }
    }

    // Agreeing name + e-mail channels reinforce each other (the hint stays
    // 0 unless both sides have addresses).
    if name_best >= 0.78 && email_hint >= 0.8 {
        best = (best + 0.08).min(1.0);
    }
    if contradiction {
        // The veto is soft enough to be overridden only by a shared
        // address (returned above), never by association evidence.
        best = best.min(0.6);
    }
    best.clamp(0.0, 1.0)
}

/// Score two Publication pools: best title similarity, adjusted by year
/// agreement (equal years nudge up, conflicting years push firmly down —
/// two different papers often share vocabulary but rarely a year *and* a
/// near-identical title).
pub fn publication_score(v: &Vocab, a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    let mut t: f64 = 0.0;
    for &ta in a.titles.iter() {
        for &tb in b.titles.iter() {
            t = t.max(title_similarity(
                &v.titles[ta as usize],
                &v.titles[tb as usize],
            ));
        }
    }
    if t == 0.0 {
        return 0.0;
    }
    match (a.years.first(), b.years.first()) {
        (Some(ya), Some(yb)) if ya == yb => (t + 0.04).min(1.0),
        (Some(ya), Some(yb)) if ya != yb => (t - 0.25).max(0.0),
        _ => t,
    }
}

/// Score two Venue pools: the venue comparator over every name/abbreviation
/// pairing.
pub fn venue_score(v: &Vocab, a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    let forms = |p: &Pool<'_>| -> Vec<&str> {
        let names = p.names.iter().map(|&i| v.names[i as usize].as_str());
        let abbrevs = p.abbrevs.iter().map(|&i| v.abbrevs[i as usize].as_str());
        names.chain(abbrevs).collect()
    };
    let (forms_a, forms_b) = (forms(a), forms(b));
    let mut best: f64 = 0.0;
    for fa in &forms_a {
        for fb in &forms_b {
            best = best.max(venue_similarity(fa, fb));
        }
    }
    best
}

/// Score two Organization pools: token-wise Monge–Elkan over names.
pub fn organization_score(v: &Vocab, a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    let tokens = |i: u32| -> Vec<String> {
        v.names[i as usize]
            .split_whitespace()
            .map(str::to_lowercase)
            .collect()
    };
    let mut best: f64 = 0.0;
    for &na in a.names.iter() {
        let ta = tokens(na);
        for &nb in b.names.iter() {
            best = best.max(monge_elkan(&ta, &tokens(nb), normalized_damerau));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::refs::{RefEntry, RefTable, VocabBuilder};
    use proptest::prelude::*;
    use semex_similarity::name::PersonName;
    use std::collections::HashMap;

    fn pool<'a>(names: &[&'a str], emails: &[&'a str]) -> oracle::Pool<'a> {
        oracle::Pool {
            names: names.to_vec(),
            emails: emails.to_vec(),
            ..Default::default()
        }
    }

    /// Score two hand-built string pools (no parse cache) with the id-based
    /// comparator for `kind`, checking the bits against the oracle.
    fn score(kind: RefKind, a: &oracle::Pool<'_>, b: &oracle::Pool<'_>) -> f64 {
        let mut vb = VocabBuilder::default();
        let mut ids = |p: &oracle::Pool<'_>| Pool {
            names: p.names.iter().map(|s| vb.name(s)).collect(),
            emails: p.emails.iter().map(|s| vb.email(s)).collect(),
            titles: p.titles.iter().map(|s| vb.title(s)).collect(),
            abbrevs: p.abbrevs.iter().map(|s| vb.abbrev(s)).collect(),
            years: Cow::Owned(p.years.to_vec()),
        };
        let (pa, pb) = (ids(a), ids(b));
        let s = attr_score(&vb.finish(), kind, &pa, &pb, &mut Verdicts::default());
        assert_eq!(s.to_bits(), oracle::attr_score(kind, a, b).to_bits());
        s
    }

    fn score_person(a: &oracle::Pool<'_>, b: &oracle::Pool<'_>) -> f64 {
        score(RefKind::Person, a, b)
    }

    fn score_publication(a: &oracle::Pool<'_>, b: &oracle::Pool<'_>) -> f64 {
        score(RefKind::Publication, a, b)
    }

    fn score_venue(a: &oracle::Pool<'_>, b: &oracle::Pool<'_>) -> f64 {
        score(RefKind::Venue, a, b)
    }

    fn score_organization(a: &oracle::Pool<'_>, b: &oracle::Pool<'_>) -> f64 {
        score(RefKind::Organization, a, b)
    }

    #[test]
    fn shared_email_is_conclusive() {
        let a = pool(&["M. Carey"], &["mcarey@ibm.com"]);
        let b = pool(&["Michael Carey"], &["mcarey@ibm.com"]);
        assert_eq!(score_person(&a, &b), 1.0);
    }

    #[test]
    fn initials_only_stays_below_default_threshold() {
        let a = pool(&["M. Carey"], &[]);
        let b = pool(&["Michael Carey"], &[]);
        let s = score_person(&a, &b);
        assert!((0.7..0.82).contains(&s), "ambiguous by design: {s}");
        // And the genuinely ambiguous competitor scores the same.
        let c = pool(&["Maria Carey"], &[]);
        let s2 = score_person(&a, &c);
        assert!((s - s2).abs() < 1e-9);
    }

    #[test]
    fn exact_and_nickname_names_merge_on_attrs() {
        let a = pool(&["Michael J. Carey"], &[]);
        let b = pool(&["Michael Carey"], &[]);
        assert!(score_person(&a, &b) >= 0.85);
        let c = pool(&["Mike Carey"], &[]);
        let s = score_person(&b, &c);
        assert!(s >= 0.85, "nickname: {s}");
    }

    #[test]
    fn incompatible_people_score_low() {
        let a = pool(&["Michael Carey"], &["mcarey@ibm.com"]);
        let b = pool(&["Alon Halevy"], &["alon@cs.edu"]);
        assert!(score_person(&a, &b) <= 0.4);
    }

    #[test]
    fn email_derived_from_name() {
        let a = pool(&[], &["mcarey@ibm.com"]);
        let b = pool(&["Michael Carey"], &[]);
        let s = score_person(&a, &b);
        assert!((0.7..0.82).contains(&s), "suggestive, not conclusive: {s}");
    }

    #[test]
    fn enrichment_makes_the_paper_example_work() {
        // Separately: "M. Carey"+email vs "Michael Carey" is ambiguous…
        let a = pool(&["M. Carey"], &["mcarey@ibm.com"]);
        let b = pool(&["Michael Carey"], &[]);
        let before = score_person(&a, &b);
        assert!(before < 0.82);
        // …but once b's cluster pools the address (from a third reference),
        // the pair is conclusive.
        let b_enriched = pool(&["Michael Carey"], &["mcarey@ibm.com"]);
        assert_eq!(score_person(&a, &b_enriched), 1.0);
    }

    #[test]
    fn publication_years_matter() {
        let a = oracle::Pool {
            titles: vec!["Adaptive scalable queries integration"],
            years: vec![2004].into(),
            ..Default::default()
        };
        let same = oracle::Pool {
            titles: vec!["Adaptive scalable queries integration"],
            years: vec![2004].into(),
            ..Default::default()
        };
        let other_year = oracle::Pool {
            titles: vec!["Adaptive scalable queries integration"],
            years: vec![1999].into(),
            ..Default::default()
        };
        assert!(score_publication(&a, &same) > 0.95);
        assert!(score_publication(&a, &other_year) < score_publication(&a, &same) - 0.2);
        let empty = oracle::Pool::default();
        assert_eq!(score_publication(&a, &empty), 0.0);
    }

    #[test]
    fn venue_forms_cross_match() {
        let a = oracle::Pool {
            names: vec!["International Conference on Management of Data"],
            ..Default::default()
        };
        let b = oracle::Pool {
            abbrevs: vec!["ICMD"],
            ..Default::default()
        };
        assert!(score_venue(&a, &b) >= 0.9, "abbreviation must match");
    }

    #[test]
    fn organization_typos_tolerated() {
        let a = oracle::Pool {
            names: vec!["Evergreen Labs"],
            ..Default::default()
        };
        let b = oracle::Pool {
            names: vec!["Evergren Labs"],
            ..Default::default()
        };
        assert!(score_organization(&a, &b) > 0.9);
        let c = oracle::Pool {
            names: vec!["Cascade Institute"],
            ..Default::default()
        };
        assert!(score_organization(&a, &c) < 0.6);
    }

    const NAMES: &[&str] = &[
        "Michael Carey",
        "M. Carey",
        "Carey, Michael J.",
        "Mike Carey",
        "Maria Carey",
        "Michael Cary",
        "Nicholas Rossi",
        "Nicholas Kowalski",
        "José Ñúñez",
        "J. Núñez",
        "Ñúñez, José",
        "Zoë Ärger",
        "Z. Ärger",
        "",
        "Madonna",
        "Dr. Alon Halevy",
        "Halevy, Alon",
        "Alon Halevi",
        "Xin Luna Dong",
        "Dong, Xin",
        "International Conference on Management of Data",
        "Evergreen Labs",
    ];
    const EMAILS: &[&str] = &[
        "mcarey@ibm.com",
        "MCarey@IBM.com",
        "michael.carey@x.edu",
        "carey@y.org",
        "mcary@ibm.com",
        "josé.núñez@x.es",
        "jnunez@x.es",
        "alon@cs.edu",
        "halevy@cs.edu",
        "a+tag@x.edu",
        "<xdong@x.edu>",
        "not-an-email",
        "",
    ];
    const TITLES: &[&str] = &[
        "Adaptive scalable queries integration",
        "Adaptive scalable query integration",
        "Semantic desktop search",
        "Über semantische Suche",
        "",
    ];
    const ABBREVS: &[&str] = &["SIGMOD", "ICMD", "VLDB", ""];

    /// A value from a fixed list of near-collisions, or a random string.
    fn value(list: &'static [&'static str], random: &'static str) -> impl Strategy<Value = String> {
        prop_oneof![
            (0..list.len()).prop_map(move |i| list[i].to_string()),
            (0..list.len()).prop_map(move |i| list[i].to_string()),
            random,
        ]
    }

    fn values(
        list: &'static [&'static str],
        random: &'static str,
    ) -> impl Strategy<Value = Vec<String>> {
        prop::collection::vec(value(list, random), 0..7)
    }

    type RawEntry = (Vec<String>, Vec<String>, Vec<String>, Vec<String>, Vec<i64>);

    fn raw_entry() -> impl Strategy<Value = RawEntry> {
        (
            values(NAMES, "[A-Za-zéÑ., ]{0,14}"),
            values(EMAILS, "[a-zé.+]{0,6}@[a-z]{1,3}\\.(com|edu)"),
            values(TITLES, "[A-Za-z ]{0,20}"),
            values(ABBREVS, "[A-Z]{0,5}"),
            prop::collection::vec(2000i64..2004, 0..3),
        )
    }

    /// A reference table over raw entries, interned the way
    /// `RefTable::build` does it (addresses lowercased first).
    fn table_of(raw: &[RawEntry]) -> RefTable {
        let mut vb = VocabBuilder::default();
        let entries = raw
            .iter()
            .map(|(names, emails, titles, abbrevs, years)| RefEntry {
                names: names.iter().map(|s| vb.name(s)).collect(),
                emails: emails.iter().map(|s| vb.email(&s.to_lowercase())).collect(),
                titles: titles.iter().map(|s| vb.title(s)).collect(),
                abbrevs: abbrevs.iter().map(|s| vb.abbrev(s)).collect(),
                years: years.clone(),
                ..Default::default()
            })
            .collect();
        RefTable {
            entries,
            index_of: HashMap::new(),
            vocab: vb.finish(),
        }
    }

    const KINDS: [RefKind; 4] = [
        RefKind::Person,
        RefKind::Publication,
        RefKind::Venue,
        RefKind::Organization,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Cluster pools with repeated values, more than 12 values per
        /// field, non-ASCII and empty values: the deduplicated id pools
        /// and the verdict memo (shared across every comparison of the
        /// case, as a shard shares it) score every kind to the same bits
        /// as the string oracle, with and without its parse cache.
        #[test]
        fn pooled_scores_match_the_string_oracle(
            raw in prop::collection::vec(raw_entry(), 1..8),
            clusters in prop::collection::vec(prop::collection::vec(0usize..64, 1..6), 2..4),
        ) {
            let table = table_of(&raw);
            let members: Vec<Vec<u32>> = clusters
                .iter()
                .map(|c| c.iter().map(|&m| (m % raw.len()) as u32).collect())
                .collect();
            let mut verdicts = Verdicts::default();
            for ma in &members {
                for mb in &members {
                    let (pa, pb) = (Pool::of_members(&table.entries, ma), Pool::of_members(&table.entries, mb));
                    let (oa, ob) = (oracle::pooled(&table, ma), oracle::pooled(&table, mb));
                    fn bare<'a>(p: &oracle::Pool<'a>) -> oracle::Pool<'a> {
                        oracle::Pool {
                            parsed_names: Vec::new(),
                            ..p.clone()
                        }
                    }
                    for kind in KINDS {
                        let got = attr_score(&table.vocab, kind, &pa, &pb, &mut verdicts);
                        let want = oracle::attr_score(kind, &oa, &ob);
                        prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?} {:?} {:?}", kind, ma, mb);
                        let uncached = oracle::attr_score(kind, &bare(&oa), &bare(&ob));
                        prop_assert_eq!(got.to_bits(), uncached.to_bits());
                    }
                }
            }
        }

        /// Singleton pools borrow their entry's ids, duplicates and all.
        #[test]
        fn singleton_scores_match_the_string_oracle(raw in prop::collection::vec(raw_entry(), 2..5)) {
            let table = table_of(&raw);
            let mut verdicts = Verdicts::default();
            for (a, ea) in table.entries.iter().enumerate() {
                for (b, eb) in table.entries.iter().enumerate() {
                    let (oa, ob) = (oracle::pooled(&table, &[a as u32]), oracle::pooled(&table, &[b as u32]));
                    for kind in KINDS {
                        let got = attr_score(&table.vocab, kind, &Pool::of(ea), &Pool::of(eb), &mut verdicts);
                        prop_assert_eq!(got.to_bits(), oracle::attr_score(kind, &oa, &ob).to_bits());
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// An entry reported as already pooled has exactly its one-member
        /// pool, so its base score can stand in for that pooled score.
        #[test]
        fn entries_reported_pooled_equal_their_one_member_pools(raw in prop::collection::vec(raw_entry(), 1..4)) {
            let table = table_of(&raw);
            for (i, e) in table.entries.iter().enumerate() {
                let (own, pooled) = (Pool::of(e), Pool::of_members(&table.entries, &[i as u32]));
                let same = own.names == pooled.names
                    && own.emails == pooled.emails
                    && own.titles == pooled.titles
                    && own.abbrevs == pooled.abbrevs
                    && own.years == pooled.years;
                prop_assert_eq!(Pool::of_entry_is_pooled(e), same, "{:?}", e);
            }
        }
    }

    #[test]
    fn pools_keep_the_first_twelve_values_once_each() {
        let raw: Vec<RawEntry> = vec![
            (vec!["A".into(); 5], vec![], vec![], vec![], vec![2001; 5]),
            (
                vec!["B".into(), "A".into()],
                vec![],
                vec![],
                vec![],
                vec![2002; 5],
            ),
            (vec!["C".into(); 6], vec![], vec![], vec![], vec![2003; 5]),
            (vec!["D".into()], vec![], vec![], vec![], vec![]),
        ];
        let table = table_of(&raw);
        let p = Pool::of_members(&table.entries, &[0, 1, 2, 3]);
        // 5 + 2 + 5 of the 6 Cs fill the cap; D is past it.
        assert_eq!(p.names.as_ref(), &[0, 1, 2]);
        assert_eq!(
            p.years.as_ref(),
            &[2001, 2001, 2001, 2001, 2001, 2002, 2002, 2002, 2002, 2002, 2003, 2003]
        );
        let parsed: &PersonName = &table.vocab.parsed_names[2];
        assert_eq!(parsed.last.as_deref(), Some("c"));
    }

    #[test]
    fn repeated_name_pairs_hit_the_memo() {
        let raw: Vec<RawEntry> = vec![
            (
                vec!["Michael Carey".into()],
                vec!["mcarey@ibm.com".into()],
                vec![],
                vec![],
                vec![],
            ),
            (vec!["M. Carey".into()], vec![], vec![], vec![], vec![]),
        ];
        let table = table_of(&raw);
        let mut verdicts = Verdicts::default();
        let (a, b) = (Pool::of(&table.entries[0]), Pool::of(&table.entries[1]));
        let first = person_score(&table.vocab, &a, &b, &mut verdicts);
        assert_eq!(verdicts.hits, 0);
        let again = person_score(&table.vocab, &a, &b, &mut verdicts);
        assert_eq!(first.to_bits(), again.to_bits());
        assert!(
            verdicts.hits >= 2,
            "name pair and cross match both remembered"
        );
    }
}
