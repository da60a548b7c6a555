//! E-mail address comparison.
//!
//! E-mail addresses are near-keys for people, but the same person often has
//! several (`luna@cs.example.edu`, `xdong@example.com`) and variants of one
//! (dots, plus-tags, case). This module normalizes addresses and scores
//! pairs, and can test whether an address plausibly belongs to a person
//! name (`mcarey@…` vs `Michael Carey`).

use crate::jaro_winkler;
use crate::name::PersonName;

/// An e-mail address split into normalized local part and domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmailAddr {
    /// Local part, lowercased, with plus-tag stripped (`a+b@x` → `a`).
    pub local: String,
    /// Domain, lowercased.
    pub domain: String,
}

impl EmailAddr {
    /// Parse and normalize. Returns `None` without exactly one `@` or with
    /// an empty side.
    pub fn parse(s: &str) -> Option<EmailAddr> {
        let s = s.trim().trim_matches(|c| c == '<' || c == '>');
        let (local, domain) = s.split_once('@')?;
        if local.is_empty() || domain.is_empty() || domain.contains('@') {
            return None;
        }
        let local = local.to_lowercase();
        let local = local
            .split_once('+')
            .map(|(l, _)| l.to_owned())
            .unwrap_or(local);
        Some(EmailAddr {
            local,
            domain: domain.to_lowercase(),
        })
    }

    /// Canonical `local@domain` rendering.
    pub fn canonical(&self) -> String {
        format!("{}@{}", self.local, self.domain)
    }

    /// Similarity of two parsed addresses in `[0, 1]` (see
    /// [`email_similarity`]).
    pub fn similarity(&self, other: &EmailAddr) -> f64 {
        if self == other {
            return 1.0;
        }
        if self.local == other.local {
            return 0.8;
        }
        if self.domain == other.domain {
            let jw = jaro_winkler(&self.local, &other.local);
            if jw >= 0.85 {
                return 0.7 * jw;
            }
        }
        0.0
    }

    /// The local part with every non-alphanumeric character removed: the
    /// form [`name_form_matches`] compares against a person name.
    pub fn name_form(&self) -> String {
        self.local.chars().filter(|c| c.is_alphanumeric()).collect()
    }
}

/// Similarity of two address strings in `[0, 1]`.
///
/// Identical canonical addresses score 1; same local part on different
/// domains scores 0.8 (a person moving institutions); similar local parts on
/// the same domain score by local-part Jaro–Winkler, scaled to at most 0.7;
/// everything else scores 0.
pub fn email_similarity(a: &str, b: &str) -> f64 {
    match (EmailAddr::parse(a), EmailAddr::parse(b)) {
        (Some(ea), Some(eb)) => ea.similarity(&eb),
        _ => 0.0,
    }
}

/// Whether an address's local part is plausibly derived from a person name:
/// `mcarey`, `michael.carey`, `carey`, `michaelc`, `mjcarey`, …
pub fn email_matches_name(addr: &str, name: &str) -> bool {
    email_matches_parsed_name(addr, &PersonName::parse(name))
}

/// [`email_matches_name`] against an already-parsed name (hot loops parse
/// names once and reuse them).
pub fn email_matches_parsed_name(addr: &str, n: &PersonName) -> bool {
    EmailAddr::parse(addr).is_some_and(|e| name_form_matches(&e.name_form(), n))
}

/// [`email_matches_parsed_name`] over an address already reduced to its
/// [`EmailAddr::name_form`]. The local part matches when it spells one of
/// `first last`, `last first`, `f last`, `first l`, `f m… last`, `last` or
/// `first` run together (at least 3 bytes), or contains a family or given
/// name of at least 4 bytes. Allocates nothing.
pub fn name_form_matches(local: &str, n: &PersonName) -> bool {
    if local.is_empty() {
        return false;
    }
    let first = n.first.as_deref().unwrap_or("");
    let last = n.last.as_deref().unwrap_or("");
    if first.is_empty() && last.is_empty() {
        return false;
    }
    let (fi, li) = (initial(first), initial(last));
    let spelt = local.len() >= 3
        && (spells(local, [first, last])
            || spells(local, [last, first])
            || spells(local, [fi, last])
            || spells(local, [first, li])
            || spells(
                local,
                std::iter::once(fi)
                    .chain(n.middle.iter().map(|m| initial(m)))
                    .chain(std::iter::once(last)),
            )
            || local == last
            || local == first);
    spelt
        || (last.len() >= 4 && local.contains(last))
        || (first.len() >= 4 && local.contains(first))
}

/// The first character of `s`, as a slice of it (empty for `""`).
fn initial(s: &str) -> &str {
    &s[..s.chars().next().map_or(0, char::len_utf8)]
}

/// Whether `s` is exactly `parts` run together.
fn spells<'p>(s: &str, parts: impl IntoIterator<Item = &'p str>) -> bool {
    let mut rest = s;
    for p in parts {
        match rest.strip_prefix(p) {
            Some(r) => rest = r,
            None => return false,
        }
    }
    rest.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference matcher: every candidate local part spelt out with
    /// `format!`. [`name_form_matches`] must agree with it everywhere.
    fn matches_by_formatting(addr: &str, n: &PersonName) -> bool {
        let Some(e) = EmailAddr::parse(addr) else {
            return false;
        };
        let local: String = e.local.chars().filter(|c| c.is_alphanumeric()).collect();
        if local.is_empty() {
            return false;
        }
        let first = n.first.clone().unwrap_or_default();
        let last = n.last.clone().unwrap_or_default();
        if first.is_empty() && last.is_empty() {
            return false;
        }
        let fi: String = first.chars().take(1).collect();
        let li: String = last.chars().take(1).collect();
        let mid: String = n.middle.iter().filter_map(|m| m.chars().next()).collect();
        let candidates = [
            format!("{first}{last}"),
            format!("{last}{first}"),
            format!("{fi}{last}"),
            format!("{first}{li}"),
            format!("{fi}{mid}{last}"),
            last.clone(),
            first.clone(),
        ];
        candidates
            .iter()
            .filter(|c| c.len() >= 3)
            .any(|c| *c == local)
            || (!last.is_empty() && last.len() >= 4 && local.contains(&last))
            || (!first.is_empty() && first.len() >= 4 && local.contains(&first))
    }

    #[test]
    fn parse_normalizes() {
        let e = EmailAddr::parse("  <Luna+lists@CS.Example.EDU> ").unwrap();
        assert_eq!(e.local, "luna");
        assert_eq!(e.domain, "cs.example.edu");
        assert_eq!(e.canonical(), "luna@cs.example.edu");
        assert!(EmailAddr::parse("no-at-sign").is_none());
        assert!(EmailAddr::parse("@x.com").is_none());
        assert!(EmailAddr::parse("a@").is_none());
        assert!(EmailAddr::parse("a@b@c").is_none());
    }

    #[test]
    fn similarity_tiers() {
        assert_eq!(email_similarity("Luna@x.edu", "luna@x.edu"), 1.0);
        assert_eq!(email_similarity("luna@x.edu", "luna@y.com"), 0.8);
        let near = email_similarity("mcarey@x.edu", "mcary@x.edu");
        assert!(near > 0.5 && near < 0.8, "{near}");
        assert_eq!(email_similarity("alice@x.edu", "bob@x.edu"), 0.0);
        assert_eq!(email_similarity("garbage", "alice@x.edu"), 0.0);
    }

    #[test]
    fn name_derivation() {
        assert!(email_matches_name("mcarey@ibm.com", "Michael Carey"));
        assert!(email_matches_name("michael.carey@ibm.com", "Michael Carey"));
        assert!(email_matches_name("carey@ibm.com", "Michael Carey"));
        assert!(email_matches_name("mjcarey@ibm.com", "Michael J. Carey"));
        assert!(!email_matches_name("halevy@cs.edu", "Michael Carey"));
        assert!(!email_matches_name("xy@cs.edu", "Michael Carey"));
        assert!(!email_matches_name("not-an-email", "Michael Carey"));
    }

    proptest! {
        #[test]
        fn similarity_bounds(a in "[a-z]{1,8}@[a-z]{1,8}\\.(com|edu)", b in "[a-z]{1,8}@[a-z]{1,8}\\.(com|edu)") {
            let s = email_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - email_similarity(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn parse_never_panics(s in ".{0,30}") {
            let _ = EmailAddr::parse(&s);
        }

        #[test]
        fn matcher_agrees_with_formatting_oracle(
            local in "[a-zé.]{0,12}",
            (first, has_first) in ("[a-zé]{0,7}", any::<bool>()),
            middle in prop::collection::vec("[a-zé]{0,3}", 0..3),
            (last, has_last) in ("[a-zé]{0,9}", any::<bool>()),
        ) {
            let n = PersonName {
                first: has_first.then_some(first),
                middle,
                last: has_last.then_some(last),
            };
            // Local parts built from the name's own pieces exercise the
            // spelt-out forms, which random strings almost never hit.
            let f = n.first.clone().unwrap_or_default();
            let l = n.last.clone().unwrap_or_default();
            let fi: String = f.chars().take(1).collect();
            let li: String = l.chars().take(1).collect();
            let mid: String = n.middle.iter().filter_map(|m| m.chars().next()).collect();
            let built = [
                format!("{f}.{l}"),
                format!("{l}{f}"),
                format!("{fi}{l}"),
                format!("{f}{li}"),
                format!("{fi}{mid}{l}"),
                format!("x{l}"),
                format!("{f}x"),
            ];
            for local in std::iter::once(local).chain(built) {
                let addr = format!("{local}@x.edu");
                prop_assert_eq!(
                    email_matches_parsed_name(&addr, &n),
                    matches_by_formatting(&addr, &n),
                    "{} vs {:?}", addr, n
                );
            }
        }

        #[test]
        fn self_similarity(a in "[a-z]{1,8}@[a-z]{1,8}\\.com") {
            prop_assert_eq!(email_similarity(&a, &a), 1.0);
        }
    }
}
