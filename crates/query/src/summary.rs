//! Browsing by association: neighbourhoods, derived associations and
//! connection paths.
//!
//! These are the SEMEX demo's browsing answers — what surrounds an
//! object, who its co-authors are, how two people are connected — built
//! on the engine's one-object hop (`hop_targets`, the step `expand_hop`
//! applies to every frontier object) and its plan executor.
//! The serve layer's `Request::Browse`, the facade's object view, the CLI
//! and the [`analyze`](crate::analyze) module all read through here.

use crate::exec::{hop_targets, run, ExecConfig};
use crate::parse::compile_rule;
use crate::plan::{PathQuery, Start};
use crate::step::Dir;
use semex_model::DerivedDef;
use semex_store::{ObjectId, Store};
use std::collections::{HashMap, HashSet, VecDeque};

/// One labelled link in a neighbourhood listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Association (or derived association) name as displayed.
    pub label: String,
    /// The neighbouring object.
    pub target: ObjectId,
    /// The neighbour's display label.
    pub target_label: String,
}

/// The one-hop expansions around an object, in model order: each
/// association forward under its own name, then inverse under its
/// `inverse_label`.
fn hops<'a>(
    store: &'a Store,
    obj: ObjectId,
) -> impl Iterator<Item = (&'a str, impl Iterator<Item = ObjectId> + 'a)> + 'a {
    store.model().assocs().flat_map(move |(assoc, def)| {
        [
            (def.name.as_str(), Dir::Forward),
            (def.inverse_label.as_str(), Dir::Inverse),
        ]
        .map(|(label, dir)| (label, hop_targets(store, obj, dir, assoc, None)))
    })
}

/// Every neighbour of an object, in [`hops`] order.
pub(crate) fn adjacent(store: &Store, obj: ObjectId) -> impl Iterator<Item = ObjectId> + '_ {
    hops(store, obj).flat_map(|(_, targets)| targets)
}

/// All direct links of an object: forward associations under their own
/// name, inverse associations under their `inverse_label`. Results are
/// sorted by label then target for deterministic display.
pub fn neighborhood(store: &Store, obj: ObjectId) -> Vec<Link> {
    let mut out: Vec<Link> = hops(store, obj)
        .flat_map(|(label, targets)| {
            targets.map(move |target| Link {
                label: label.to_owned(),
                target,
                target_label: store.label(target),
            })
        })
        .collect();
    out.sort_by(|a, b| a.label.cmp(&b.label).then(a.target.cmp(&b.target)));
    out
}

/// Group an object's neighbourhood by link label: `(label, count)` pairs,
/// sorted by label — forward associations under their own name, inverse
/// associations under their `inverse_label`.
pub fn neighborhood_summary(store: &Store, obj: ObjectId) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = hops(store, obj)
        .map(|(label, targets)| (label, targets.count()))
        .filter(|&(_, n)| n > 0)
        .map(|(label, n)| (label.to_owned(), n))
        .collect();
    counts.sort_by(|a, b| a.0.cmp(&b.0));
    // Distinct associations sharing a display label collapse into one
    // entry, as in the sorted link listing.
    let mut out: Vec<(String, usize)> = Vec::new();
    for (label, c) in counts {
        match out.last_mut() {
            Some((l, n)) if *l == label => *n += c,
            _ => out.push((label, c)),
        }
    }
    out
}

/// Evaluate a derived association (`CoAuthor`, `CorrespondedWith`, …) by
/// name from a start object: the model's rule, compiled to engine steps,
/// run from the resolved start. The start itself is dropped when the
/// definition is irreflexive. Returns `None` for an unknown name.
pub fn derived(store: &Store, start: ObjectId, name: &str) -> Option<Vec<ObjectId>> {
    Some(derived_of(store, start, store.model().derived(name)?))
}

/// [`derived`] for a definition in hand.
pub(crate) fn derived_of(store: &Store, start: ObjectId, def: &DerivedDef) -> Vec<ObjectId> {
    let start = store.resolve(start);
    let plan = PathQuery::new(Start::Object(start), compile_rule(&def.rule, Dir::Forward));
    // One start object, as unbounded as the rule itself.
    let cfg = ExecConfig {
        threads: 1,
        node_budget: usize::MAX,
    };
    let mut out = run(store, &plan, &cfg).expect("an unlimited budget cannot run out");
    if def.irreflexive {
        out.retain(|&o| o != start);
    }
    out
}

/// Breadth-first shortest path between two objects over all associations
/// (both directions) — the "how am I connected to X?" question. Returns
/// the node sequence with the label of the edge that reached each node,
/// or `None` when the objects are not connected within `max_depth` hops.
/// Ties break by model order, forward before inverse, then stored order.
pub fn shortest_path(
    store: &Store,
    from: ObjectId,
    to: ObjectId,
    max_depth: usize,
) -> Option<Vec<(ObjectId, Option<String>)>> {
    let from = store.resolve(from);
    let to = store.resolve(to);
    if from == to {
        return Some(vec![(from, None)]);
    }
    let mut prev: HashMap<ObjectId, (ObjectId, &str)> = HashMap::new();
    let mut seen: HashSet<ObjectId> = HashSet::from([from]);
    let mut frontier = VecDeque::from([(from, 0usize)]);
    while let Some((cur, depth)) = frontier.pop_front() {
        if depth >= max_depth {
            continue;
        }
        for (label, targets) in hops(store, cur) {
            for t in targets {
                if !seen.insert(t) {
                    continue;
                }
                prev.insert(t, (cur, label));
                if t == to {
                    let mut path = vec![(to, None)];
                    let mut at = to;
                    while at != from {
                        let (p, label) = prev[&at];
                        path.last_mut().expect("non-empty").1 = Some(label.to_owned());
                        path.push((p, None));
                        at = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                frontier.push_back((t, depth + 1));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_extract::{bibtex::extract_bibtex, email::extract_mbox, ExtractContext};
    use semex_model::names::{class, derived};
    use semex_store::{SourceInfo, SourceKind};

    fn store() -> Store {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let mut ctx = ExtractContext::new(&mut st, src);
        extract_bibtex(
            "@inproceedings{a, title={Paper One}, author={Ann Walker and Bob Fisher}, booktitle={SIGMOD}, year=2004}\n\
             @inproceedings{b, title={Paper Two}, author={Ann Walker and Carol Reyes}, booktitle={VLDB}, year=2005}",
            &mut ctx,
        )
        .unwrap();
        extract_mbox(
            "From: Ann Walker <ann@x.edu>\nTo: Dave Moss <dave@y.org>\nSubject: hi\n\nbody",
            &mut ctx,
        )
        .unwrap();
        st
    }

    fn person(st: &Store, name: &str) -> ObjectId {
        let c = st.model().class(class::PERSON).unwrap();
        st.objects_of_class(c)
            .find(|&p| st.label(p) == name)
            .unwrap_or_else(|| panic!("person {name}"))
    }

    /// Merge the bib author and the mail sender "Ann Walker", the way
    /// reconciliation would.
    fn merge_anns(st: &mut Store) {
        let c = st.model().class(class::PERSON).unwrap();
        let anns: Vec<_> = st
            .objects_of_class(c)
            .filter(|&p| st.label(p) == "Ann Walker")
            .collect();
        assert_eq!(anns.len(), 2);
        st.merge(anns[0], anns[1]).unwrap();
    }

    fn labels(st: &Store, objs: &[ObjectId]) -> Vec<String> {
        objs.iter().map(|&o| st.label(o)).collect()
    }

    #[test]
    fn neighborhood_lists_both_directions() {
        let mut st = store();
        merge_anns(&mut st);
        let ann = person(&st, "Ann Walker");
        let links: Vec<(String, String)> = neighborhood(&st, ann)
            .into_iter()
            .map(|l| (l.label, l.target_label))
            .collect();
        let want = [
            ("AuthorOf", "Paper One"),
            ("AuthorOf", "Paper Two"),
            ("SenderOf", "hi"),
        ];
        assert_eq!(
            links,
            want.map(|(l, t)| (l.to_owned(), t.to_owned())).to_vec()
        );
        assert_eq!(
            neighborhood_summary(&st, ann),
            vec![("AuthorOf".to_owned(), 2), ("SenderOf".to_owned(), 1)]
        );
        // Forward direction, from a paper: authors under the association's
        // own name, sorted by target.
        let c_pub = st.model().class(class::PUBLICATION).unwrap();
        let paper = st
            .objects_of_class(c_pub)
            .find(|&p| st.label(p) == "Paper One")
            .unwrap();
        assert_eq!(
            neighborhood_summary(&st, paper),
            vec![("AuthoredBy".to_owned(), 2), ("PublishedIn".to_owned(), 1)]
        );
    }

    #[test]
    fn coauthor_derived_association() {
        let st = store();
        let ann = person(&st, "Ann Walker");
        let coauthors = derived(&st, ann, derived::CO_AUTHOR).unwrap();
        assert_eq!(labels(&st, &coauthors), ["Bob Fisher", "Carol Reyes"]);
        // Irreflexive: Ann is not her own co-author.
        assert!(!coauthors.contains(&ann));
        assert!(derived(&st, ann, "NoSuchRule").is_none());
    }

    #[test]
    fn corresponded_with_union_rule() {
        let mut st = store();
        merge_anns(&mut st);
        let ann = person(&st, "Ann Walker");
        let dave = person(&st, "Dave Moss");
        let corr = derived(&st, ann, derived::CORRESPONDED_WITH).unwrap();
        assert_eq!(corr, vec![dave]);
        // Symmetric from Dave's side (the union covers both directions).
        let corr = derived(&st, dave, derived::CORRESPONDED_WITH).unwrap();
        assert_eq!(corr, vec![ann]);
    }

    #[test]
    fn derived_respects_merges() {
        let mut st = store();
        // Merge Bob and Carol (hypothetically the same person): CoAuthor
        // reflects the merged graph.
        let bob = person(&st, "Bob Fisher");
        let carol = person(&st, "Carol Reyes");
        st.merge(bob, carol).unwrap();
        let ann = person(&st, "Ann Walker");
        let coauthors = derived(&st, ann, derived::CO_AUTHOR).unwrap();
        assert_eq!(coauthors, vec![bob]);
        // Querying through the stale id still works.
        let via_stale = derived(&st, carol, derived::CO_AUTHOR).unwrap();
        assert_eq!(via_stale, vec![ann]);
    }

    #[test]
    fn shortest_path_between_objects() {
        let st = store();
        let bob = person(&st, "Bob Fisher");
        let carol = person(&st, "Carol Reyes");
        // Bob -> Paper One -> Ann -> Paper Two -> Carol.
        let path = shortest_path(&st, bob, carol, 6).unwrap();
        let rendered: Vec<(String, Option<String>)> = path
            .into_iter()
            .map(|(o, via)| (st.label(o), via))
            .collect();
        let want = [
            ("Bob Fisher", None),
            ("Paper One", Some("AuthorOf")),
            ("Ann Walker", Some("AuthoredBy")),
            ("Paper Two", Some("AuthorOf")),
            ("Carol Reyes", Some("AuthoredBy")),
        ];
        assert_eq!(
            rendered,
            want.map(|(o, via)| (o.to_owned(), via.map(str::to_owned)))
                .to_vec()
        );
        // The depth cap: four hops are needed.
        assert!(shortest_path(&st, bob, carol, 3).is_none());
        assert!(shortest_path(&st, bob, carol, 4).is_some());
        // Self-path, at any depth.
        assert_eq!(shortest_path(&st, bob, bob, 0), Some(vec![(bob, None)]));
        // Disconnected: Dave only knows the mail-side Ann.
        let dave = person(&st, "Dave Moss");
        assert!(shortest_path(&st, bob, dave, 10).is_none());
    }
}
