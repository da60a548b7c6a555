//! The string-based scorers that interning replaced, kept verbatim as the
//! equivalence oracle: every pool is a list of strings (up to 12 per
//! field, duplicates included), names are parsed from a cache when one is
//! supplied and on the fly otherwise, and addresses are re-parsed on every
//! comparison. The id-based scorers in the parent module must return the
//! same bits.

use crate::refs::{RefKind, RefTable};
use semex_similarity::email::{email_matches_parsed_name, email_similarity};
use semex_similarity::name::{names_compatible, PersonName};
use semex_similarity::venue::venue_similarity;
use semex_similarity::{jaro_winkler, monge_elkan, normalized_damerau, title::title_similarity};
use std::borrow::Cow;

/// A pooled view of the attribute values the scorers compare.
#[derive(Debug, Clone)]
pub struct Pool<'a> {
    /// Person/organization/venue names.
    pub names: Vec<&'a str>,
    /// Pre-parsed person names, parallel to `names` when populated (the
    /// reference table parses each name exactly once; pools built by hand —
    /// e.g. in tests — may leave this empty and the scorer parses on the
    /// fly).
    pub parsed_names: Vec<&'a PersonName>,
    /// E-mail addresses.
    pub emails: Vec<&'a str>,
    /// Publication titles.
    pub titles: Vec<&'a str>,
    /// Venue abbreviations.
    pub abbrevs: Vec<&'a str>,
    /// Publication years: borrowed straight from a single reference's
    /// cached values (the hot singleton-scoring path allocates nothing),
    /// owned only when a multi-member cluster actually pools them.
    pub years: Cow<'a, [i64]>,
}

impl Default for Pool<'_> {
    fn default() -> Self {
        Pool {
            names: Vec::new(),
            parsed_names: Vec::new(),
            emails: Vec::new(),
            titles: Vec::new(),
            abbrevs: Vec::new(),
            years: Cow::Borrowed(&[]),
        }
    }
}

/// Parsed views of a pool's names: borrowed from the cache when available,
/// parsed here otherwise. Scoring a cached pool allocates nothing.
enum ParsedView<'p> {
    Cached(&'p [&'p PersonName]),
    Owned(Vec<PersonName>),
}

impl ParsedView<'_> {
    fn len(&self) -> usize {
        match self {
            ParsedView::Cached(s) => s.len(),
            ParsedView::Owned(v) => v.len(),
        }
    }

    fn get(&self, i: usize) -> &PersonName {
        match self {
            ParsedView::Cached(s) => s[i],
            ParsedView::Owned(v) => &v[i],
        }
    }

    fn iter(&self) -> impl Iterator<Item = &PersonName> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }
}

fn parsed_views<'p>(pool: &'p Pool<'_>) -> ParsedView<'p> {
    if pool.parsed_names.len() == pool.names.len() {
        ParsedView::Cached(&pool.parsed_names)
    } else {
        ParsedView::Owned(pool.names.iter().map(|n| PersonName::parse(n)).collect())
    }
}

/// Score two Person pools.
///
/// Tiers: shared e-mail address ⇒ 1.0; same local-part on another domain ⇒
/// 0.85–0.9; exact/nickname-compatible full names ⇒ 0.84–0.95; an
/// initials-only name match is capped at 0.78 (below the default merge
/// threshold — ambiguous on purpose); an e-mail plausibly derived from the
/// other side's name ⇒ 0.74. Incompatible names never score above 0.4.
pub fn person_score(a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    // E-mail evidence.
    let mut best: f64 = 0.0;
    for ea in &a.emails {
        for eb in &b.emails {
            let s = email_similarity(ea, eb);
            if s >= 1.0 {
                return 1.0;
            }
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
    let parsed_a = parsed_views(a);
    let parsed_b = parsed_views(b);
    for (na, pa) in a.names.iter().zip(parsed_a.iter()) {
        for (nb, pb) in b.names.iter().zip(parsed_b.iter()) {
            if !names_compatible(pa, pb) {
                name_best = name_best.max(jaro_winkler(na, nb).min(0.4));
                // Spelt-out given names disagreeing on the same family name
                // ("Maria Carey" / "Michael Carey") contradict; so do two
                // spelt-out, clearly different family names ("Nicholas
                // Rossi" / "Nicholas Kowalski").
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
                    if la.chars().count() >= 3
                        && lb.chars().count() >= 3
                        && !semex_similarity::name::last_names_compatible(la, lb)
                    {
                        contradiction = true;
                    }
                }
                continue;
            }
            any_compatible = true;
            let s = match (&pa.first, &pb.first) {
                (Some(fa), Some(fb)) if fa == fb && fa.chars().count() > 1 => 0.92,
                (Some(fa), Some(fb)) if fa.chars().count() > 1 && fb.chars().count() > 1 => {
                    // Nickname or typo'd given name.
                    0.80 + 0.12 * jaro_winkler(fa, fb)
                }
                (Some(fa), Some(fb)) if fa.chars().count() == 1 && fb.chars().count() == 1 => {
                    // Initial vs. initial ("R. Garcia" / "Garcia, R."):
                    // barely any signal — could be any Garcia.
                    0.72
                }
                (Some(_), Some(_)) => 0.78, // initial vs. spelt-out given name
                _ => 0.72,                  // a bare family name
            };
            let s = if pa.last == pb.last { s } else { s - 0.04 };
            name_best = name_best.max(s);
        }
    }
    best = best.max(name_best);

    // Cross evidence: an address derived from the other side's name. On
    // its own it is suggestive (0.74); combined with an agreeing name it
    // corroborates an otherwise ambiguous initial-form match.
    let mut cross = false;
    if !any_compatible || name_best < 0.92 {
        for e in &a.emails {
            for n in parsed_b.iter() {
                if email_matches_parsed_name(e, n) {
                    cross = true;
                }
            }
        }
        for e in &b.emails {
            for n in parsed_a.iter() {
                if email_matches_parsed_name(e, n) {
                    cross = true;
                }
            }
        }
        if cross {
            best = best.max(0.74);
        }
    }

    // Agreeing name + e-mail channels reinforce each other.
    if name_best >= 0.78 && !a.emails.is_empty() && !b.emails.is_empty() {
        let email_hint = a
            .emails
            .iter()
            .flat_map(|ea| b.emails.iter().map(move |eb| email_similarity(ea, eb)))
            .fold(0.0_f64, f64::max);
        if email_hint >= 0.8 {
            best = (best + 0.08).min(1.0);
        }
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
pub fn publication_score(a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    let mut t: f64 = 0.0;
    for ta in &a.titles {
        for tb in &b.titles {
            t = t.max(title_similarity(ta, tb));
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
pub fn venue_score(a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    let forms_a: Vec<&str> = a.names.iter().chain(a.abbrevs.iter()).copied().collect();
    let forms_b: Vec<&str> = b.names.iter().chain(b.abbrevs.iter()).copied().collect();
    let mut best: f64 = 0.0;
    for fa in &forms_a {
        for fb in &forms_b {
            best = best.max(venue_similarity(fa, fb));
        }
    }
    best
}

/// Score two Organization pools: token-wise Monge–Elkan over names.
pub fn organization_score(a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    let mut best: f64 = 0.0;
    for na in &a.names {
        let ta: Vec<String> = na.split_whitespace().map(str::to_lowercase).collect();
        for nb in &b.names {
            let tb: Vec<String> = nb.split_whitespace().map(str::to_lowercase).collect();
            best = best.max(monge_elkan(&ta, &tb, normalized_damerau));
        }
    }
    best
}

/// Pool a cluster's members the way the engine did before interning: the
/// first 12 values per field in member order, duplicates kept, with the
/// names' parses borrowed from the table.
pub fn pooled<'a>(table: &'a RefTable, members: &[u32]) -> Pool<'a> {
    const CAP: usize = 12;
    let v = &table.vocab;
    let mut p = Pool::default();
    for &m in members {
        let e = &table.entries[m as usize];
        for &n in &e.names {
            if p.names.len() < CAP {
                p.names.push(v.names[n as usize].as_str());
                p.parsed_names.push(&v.parsed_names[n as usize]);
            }
        }
        for &x in &e.emails {
            if p.emails.len() < CAP {
                p.emails.push(v.emails[x as usize].as_str());
            }
        }
        for &x in &e.titles {
            if p.titles.len() < CAP {
                p.titles.push(v.titles[x as usize].as_str());
            }
        }
        for &x in &e.abbrevs {
            if p.abbrevs.len() < CAP {
                p.abbrevs.push(v.abbrevs[x as usize].as_str());
            }
        }
        for &y in &e.years {
            if p.years.len() < CAP {
                p.years.to_mut().push(y);
            }
        }
    }
    p
}

/// Dispatch the per-class comparator.
pub fn attr_score(kind: RefKind, a: &Pool<'_>, b: &Pool<'_>) -> f64 {
    match kind {
        RefKind::Person => person_score(a, b),
        RefKind::Publication => publication_score(a, b),
        RefKind::Venue => venue_score(a, b),
        RefKind::Organization | RefKind::Other => organization_score(a, b),
    }
}
