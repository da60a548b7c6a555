//! Analyses over the association database.
//!
//! The platform paper's point is that once personal information is a
//! *database*, the user can analyze it, not just retrieve from it. This
//! module provides the analyses the paper sketches:
//!
//! * [`importance`] — rank objects of a class by weighted association
//!   degree with an iterative propagation step (important people are those
//!   connected to important artifacts — a PageRank-flavoured refinement);
//! * [`timeline`] — bucket an object's dated neighbourhood (messages,
//!   events, files) into monthly activity counts;
//! * [`communities`] — connected components of a derived association
//!   (e.g. `CoAuthor`), surfacing research groups / social circles.

use crate::summary::{adjacent, derived_of};
use semex_model::names::attr;
use semex_model::{ClassId, DerivedDef};
use semex_store::{ObjectId, Store};
use std::collections::HashMap;

/// Rank the live objects of `class` by importance.
///
/// Importance starts as total association degree (in + out) and is refined
/// by `iterations` rounds of neighbour averaging: half an object's score
/// stays local, half flows from its neighbours' normalized scores. Returns
/// `(object, score)` sorted descending, capped at `top_k`.
pub fn importance(
    store: &Store,
    class: ClassId,
    iterations: usize,
    top_k: usize,
) -> Vec<(ObjectId, f64)> {
    let members: Vec<ObjectId> = store.objects_of_class(class).collect();
    if members.is_empty() {
        return Vec::new();
    }
    let index: HashMap<ObjectId, usize> =
        members.iter().enumerate().map(|(i, &o)| (o, i)).collect();

    // Neighbour lists within any class (importance flows through shared
    // artifacts: person -> message -> person, person -> publication ->
    // person, one hop out and back).
    let neighbor_objs: Vec<Vec<ObjectId>> = members
        .iter()
        .map(|&obj| adjacent(store, obj).collect())
        .collect();
    let degree: Vec<f64> = neighbor_objs.iter().map(|ns| ns.len() as f64).collect();

    // Project two-hop, same-class neighbours (through any shared artifact).
    let mut peers: Vec<Vec<usize>> = vec![Vec::new(); members.len()];
    for (i, ns) in neighbor_objs.iter().enumerate() {
        for &artifact in ns {
            for m in adjacent(store, artifact) {
                if let Some(&j) = index.get(&m) {
                    if j != i {
                        peers[i].push(j);
                    }
                }
            }
        }
    }
    for p in &mut peers {
        p.sort_unstable();
        p.dedup();
    }

    let total: f64 = degree.iter().sum::<f64>().max(1.0);
    let mut score: Vec<f64> = degree.iter().map(|d| d / total).collect();
    for _ in 0..iterations {
        let mut next = vec![0.0f64; members.len()];
        for (i, ps) in peers.iter().enumerate() {
            let inflow: f64 = ps
                .iter()
                .map(|&j| score[j] / peers[j].len().max(1) as f64)
                .sum();
            next[i] = 0.5 * score[i] + 0.5 * inflow;
        }
        score = next;
    }

    let mut ranked: Vec<(ObjectId, f64)> = members.into_iter().zip(score).collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    ranked.truncate(top_k);
    ranked
}

/// Monthly activity of an object: counts of dated neighbours (messages
/// sent/received, attended events, touched files) bucketed by `(year,
/// month)`, ascending.
pub fn timeline(store: &Store, obj: ObjectId) -> Vec<((i64, u32), usize)> {
    let model = store.model();
    let a_date = model.attr(attr::DATE).expect("builtin date");
    let mut buckets: HashMap<(i64, u32), usize> = HashMap::new();
    for neighbor in adjacent(store, obj) {
        let neighbor = store.object(neighbor);
        if let Some(epoch) = neighbor.values(a_date).find_map(|v| v.as_date()) {
            buckets
                .entry(year_month(epoch))
                .and_modify(|c| *c += 1)
                .or_insert(1);
        }
    }
    let mut out: Vec<((i64, u32), usize)> = buckets.into_iter().collect();
    out.sort();
    out
}

/// Epoch seconds → `(year, month)` (civil, UTC).
pub fn year_month(epoch: i64) -> (i64, u32) {
    let days = epoch.div_euclid(86_400);
    let z = days + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let y = if m <= 2 { y + 1 } else { y };
    (y, m)
}

/// Connected components of a derived association over its domain class,
/// largest first. Singleton components are omitted.
pub fn communities(store: &Store, def: &DerivedDef) -> Vec<Vec<ObjectId>> {
    let members: Vec<ObjectId> = store.objects_of_class(def.domain).collect();
    let index: HashMap<ObjectId, usize> =
        members.iter().enumerate().map(|(i, &o)| (o, i)).collect();
    let mut parent: Vec<usize> = (0..members.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for (i, &obj) in members.iter().enumerate() {
        for peer in derived_of(store, obj, def) {
            if let Some(&j) = index.get(&peer) {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }
    let mut groups: HashMap<usize, Vec<ObjectId>> = HashMap::new();
    for (i, &obj) in members.iter().enumerate() {
        groups.entry(find(&mut parent, i)).or_default().push(obj);
    }
    let mut out: Vec<Vec<ObjectId>> = groups.into_values().filter(|g| g.len() > 1).collect();
    for g in &mut out {
        g.sort();
    }
    out.sort_by_key(|g| (std::cmp::Reverse(g.len()), g[0]));
    out
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
            "@inproceedings{a, title={P1 one}, author={Hub Person and Spoke One}, booktitle={V}, year=2001}\n\
             @inproceedings{b, title={P2 two}, author={Hub Person and Spoke Two}, booktitle={V}, year=2002}\n\
             @inproceedings{c, title={P3 three}, author={Hub Person and Spoke Three}, booktitle={V}, year=2003}\n\
             @inproceedings{d, title={P4 four}, author={Loner Fourth}, booktitle={W}, year=2004}",
            &mut ctx,
        )
        .unwrap();
        extract_mbox(
            "From: Hub Person <hub@x.edu>\nTo: Spoke One <s1@x.edu>\nSubject: s\nDate: 2004-02-10\n\nb\n\
             \nFrom corpus 2\nFrom: Hub Person <hub@x.edu>\nTo: Spoke Two <s2@x.edu>\nSubject: t\nDate: 2004-03-11\n\nb",
            &mut ctx,
        )
        .unwrap();
        st
    }

    fn person(st: &Store, name: &str) -> ObjectId {
        let c = st.model().class(class::PERSON).unwrap();
        st.objects_of_class(c)
            .find(|&p| st.label(p) == name)
            .unwrap()
    }

    #[test]
    fn hub_ranks_first() {
        let st = store();
        let c_person = st.model().class(class::PERSON).unwrap();
        let ranked = importance(&st, c_person, 3, 10);
        assert!(!ranked.is_empty());
        // The bib "Hub Person" (3 papers) outranks every spoke and the loner.
        let hub_bib = person(&st, "Hub Person");
        let top_labels: Vec<String> = ranked.iter().take(2).map(|(o, _)| st.label(*o)).collect();
        assert!(
            ranked[0].0 == hub_bib || top_labels.iter().all(|l| l == "Hub Person"),
            "{top_labels:?}"
        );
        let loner = person(&st, "Loner Fourth");
        let loner_rank = ranked.iter().position(|(o, _)| *o == loner);
        assert!(loner_rank.is_none() || loner_rank.unwrap() > 2);
    }

    #[test]
    fn timeline_buckets_by_month() {
        let mut st = store();
        // Merge the two Hub Person references (bib + mail) so the timeline
        // sees the mail dates.
        let c = st.model().class(class::PERSON).unwrap();
        let hubs: Vec<ObjectId> = st
            .objects_of_class(c)
            .filter(|&p| st.label(p) == "Hub Person")
            .collect();
        if hubs.len() == 2 {
            st.merge(hubs[0], hubs[1]).unwrap();
        }
        let hub = person(&st, "Hub Person");
        let tl = timeline(&st, hub);
        assert_eq!(tl.len(), 2, "{tl:?}");
        assert_eq!(tl[0].0, (2004, 2));
        assert_eq!(tl[1].0, (2004, 3));
        assert_eq!(tl[0].1, 1);
    }

    #[test]
    fn coauthor_communities() {
        let st = store();
        let def = st.model().derived(derived::CO_AUTHOR).unwrap().clone();
        let groups = communities(&st, &def);
        // One community: Hub + three spokes. The loner is a singleton and
        // omitted.
        assert_eq!(groups.len(), 1, "{groups:?}");
        assert_eq!(groups[0].len(), 4);
        let labels: Vec<String> = groups[0].iter().map(|&o| st.label(o)).collect();
        assert!(labels.contains(&"Hub Person".to_owned()));
        assert!(!labels.contains(&"Loner Fourth".to_owned()));
    }

    #[test]
    fn year_month_math() {
        assert_eq!(year_month(0), (1970, 1));
        assert_eq!(year_month(86_400 * 31), (1970, 2));
        assert_eq!(year_month(1_110_844_800), (2005, 3));
        // Negative epochs (pre-1970) stay civil.
        assert_eq!(year_month(-86_400), (1969, 12));
    }

    #[test]
    fn empty_class_is_fine() {
        let st = Store::with_builtin_model();
        let c_person = st.model().class(class::PERSON).unwrap();
        assert!(importance(&st, c_person, 2, 5).is_empty());
        let def = st.model().derived(derived::CO_AUTHOR).unwrap().clone();
        assert!(communities(&st, &def).is_empty());
    }
}
