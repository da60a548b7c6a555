//! The reference table: a cached, reconciliation-oriented view of a store.

use semex_model::names::{attr, class};
use semex_model::{AttrId, ClassId};
use semex_similarity::email::EmailAddr;
use semex_similarity::name::PersonName;
use semex_store::{ObjectId, Store};
use std::collections::HashMap;

/// The built-in reconcilable kinds, used to dispatch comparators and
/// blocking keys. User-defined reconcilable classes fall back to
/// [`RefKind::Other`], which is compared by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefKind {
    /// A person reference.
    Person,
    /// A publication reference.
    Publication,
    /// A venue reference.
    Venue,
    /// An organization reference.
    Organization,
    /// Any other user-defined reconcilable class.
    #[default]
    Other,
}

/// Cached attribute values of one reference (one pre-reconciliation store
/// object of a reconcilable class). Strings are ids into the table's
/// [`Vocab`], one per extracted value, in store order.
#[derive(Debug, Clone, Default)]
pub struct RefEntry {
    /// The store object this entry mirrors.
    pub obj: ObjectId,
    /// The reference's class.
    pub class: ClassId,
    /// Comparator dispatch kind derived from the class name.
    pub kind: RefKind,
    /// `name` values ([`Vocab::names`] ids).
    pub names: Vec<u32>,
    /// `email` values, lowercased ([`Vocab::emails`] ids).
    pub emails: Vec<u32>,
    /// `title` values ([`Vocab::titles`] ids).
    pub titles: Vec<u32>,
    /// `abbreviation` values ([`Vocab::abbrevs`] ids).
    pub abbrevs: Vec<u32>,
    /// `year` values.
    pub years: Vec<i64>,
    /// Evidence neighbours, grouped by channel (see [`RefTable`]): each
    /// channel holds the indices of reconcilable references reachable over
    /// one association, or over one association *through* a structural
    /// object (sender-of-same-thread style evidence).
    pub neighbors: Vec<(u32, Vec<u32>)>,
}

/// The distinct attribute strings of a reference table, each stored and
/// parsed once. Ids are dense per field, in first-seen order.
#[derive(Debug, Clone, Default)]
pub struct Vocab {
    /// Distinct `name` values.
    pub names: Vec<String>,
    /// Person-name parse of each name (parallel to `names`).
    pub parsed_names: Vec<PersonName>,
    /// Distinct lowercased `email` values.
    pub emails: Vec<String>,
    /// Parse of each address (parallel to `emails`); `None` when it is not
    /// an address.
    pub addrs: Vec<Option<ParsedEmail>>,
    /// Distinct `title` values.
    pub titles: Vec<String>,
    /// Distinct `abbreviation` values.
    pub abbrevs: Vec<String>,
}

/// A parsed address with the local-part form that names are matched
/// against ([`EmailAddr::name_form`]).
#[derive(Debug, Clone)]
pub struct ParsedEmail {
    /// The normalized address.
    pub addr: EmailAddr,
    /// Its alphanumeric local part.
    pub name_form: String,
}

/// Builds a [`Vocab`]: interns strings per field, then parses the distinct
/// names and addresses once in [`VocabBuilder::finish`].
#[derive(Debug, Default)]
pub(crate) struct VocabBuilder {
    vocab: Vocab,
    ids: [HashMap<String, u32>; 4],
}

impl VocabBuilder {
    /// Id of a `name` value.
    pub fn name(&mut self, s: &str) -> u32 {
        intern(&mut self.ids[0], &mut self.vocab.names, s)
    }

    /// Id of an `email` value, taken as given (the table lowercases first).
    pub fn email(&mut self, s: &str) -> u32 {
        intern(&mut self.ids[1], &mut self.vocab.emails, s)
    }

    /// Id of a `title` value.
    pub fn title(&mut self, s: &str) -> u32 {
        intern(&mut self.ids[2], &mut self.vocab.titles, s)
    }

    /// Id of an `abbreviation` value.
    pub fn abbrev(&mut self, s: &str) -> u32 {
        intern(&mut self.ids[3], &mut self.vocab.abbrevs, s)
    }

    /// Parse every distinct name and address and hand back the vocabulary.
    pub fn finish(self) -> Vocab {
        let mut v = self.vocab;
        v.parsed_names = v.names.iter().map(|n| PersonName::parse(n)).collect();
        v.addrs = v
            .emails
            .iter()
            .map(|e| {
                EmailAddr::parse(e).map(|addr| ParsedEmail {
                    name_form: addr.name_form(),
                    addr,
                })
            })
            .collect();
        v
    }
}

fn intern(ids: &mut HashMap<String, u32>, strs: &mut Vec<String>, s: &str) -> u32 {
    if let Some(&id) = ids.get(s) {
        return id;
    }
    let id = strs.len() as u32;
    strs.push(s.to_owned());
    ids.insert(s.to_owned(), id);
    id
}

impl RefEntry {
    /// Neighbour indices on a given channel.
    pub fn channel(&self, ch: u32) -> &[u32] {
        self.neighbors
            .iter()
            .find(|(c, _)| *c == ch)
            .map(|(_, ns)| ns.as_slice())
            .unwrap_or(&[])
    }

    /// All channels this reference has neighbours on.
    pub fn channels(&self) -> impl Iterator<Item = u32> + '_ {
        self.neighbors.iter().map(|(c, _)| *c)
    }

    /// Every neighbour index, across channels.
    pub fn all_neighbors(&self) -> impl Iterator<Item = u32> + '_ {
        self.neighbors.iter().flat_map(|(_, ns)| ns.iter().copied())
    }
}

/// All reconcilable references of a store, with dense indices, cached
/// attributes and the evidence-neighbour graph.
#[derive(Debug, Clone)]
pub struct RefTable {
    /// Entries in index order.
    pub entries: Vec<RefEntry>,
    /// Map store object → entry index.
    pub index_of: HashMap<ObjectId, u32>,
    /// The entries' attribute strings.
    pub vocab: Vocab,
}

/// Channel id for a direct association: `assoc * 2 + dir` (dir 0 =
/// forward/I-am-subject, 1 = inverse/I-am-object).
pub fn direct_channel(assoc: u16, inverse: bool) -> u32 {
    (assoc as u32) * 2 + u32::from(inverse)
}

/// Channel id for a two-hop path through a structural object:
/// high bit set, then the two association ids.
pub fn hop_channel(first: u16, second: u16) -> u32 {
    (1 << 24) | ((first as u32) << 12) | (second as u32)
}

impl RefTable {
    /// Build the table from a store: one entry per live object of each
    /// reconcilable class, with neighbours capped at `max_fanout` per
    /// channel.
    pub fn build(store: &Store, max_fanout: usize) -> RefTable {
        let model = store.model();
        let a_name = model.attr(attr::NAME);
        let a_email = model.attr(attr::EMAIL);
        let a_title = model.attr(attr::TITLE);
        let a_abbr = model.attr(attr::ABBREVIATION);
        let a_year = model.attr(attr::YEAR);

        let mut entries: Vec<RefEntry> = Vec::new();
        let mut index_of: HashMap<ObjectId, u32> = HashMap::new();
        let mut vocab = VocabBuilder::default();
        for (class_id, def) in model.classes() {
            if !def.reconcilable {
                continue;
            }
            let kind = match def.name.as_str() {
                class::PERSON => RefKind::Person,
                class::PUBLICATION => RefKind::Publication,
                class::VENUE => RefKind::Venue,
                class::ORGANIZATION => RefKind::Organization,
                _ => RefKind::Other,
            };
            for obj in store.objects_of_class(class_id) {
                let o = store.object(obj);
                let strs = |attr: Option<AttrId>| attr.into_iter().flat_map(|a| o.strs(a));
                let mut e = RefEntry {
                    obj,
                    class: class_id,
                    kind,
                    ..Default::default()
                };
                e.names = strs(a_name).map(|s| vocab.name(s)).collect();
                e.emails = strs(a_email)
                    .map(|s| vocab.email(&s.to_lowercase()))
                    .collect();
                e.titles = strs(a_title).map(|s| vocab.title(s)).collect();
                e.abbrevs = strs(a_abbr).map(|s| vocab.abbrev(s)).collect();
                if let Some(a) = a_year {
                    e.years = o.values(a).filter_map(|v| v.as_int()).collect();
                }
                let idx = entries.len() as u32;
                index_of.insert(obj, idx);
                entries.push(e);
            }
        }

        // Evidence neighbours.
        let reconcilable = |c: ClassId| -> bool { model.class_def(c).reconcilable };
        #[allow(clippy::needless_range_loop)] // entries is mutated at [i] below
        for i in 0..entries.len() {
            let obj = entries[i].obj;
            let mut channels: HashMap<u32, Vec<u32>> = HashMap::new();
            for (assoc, def) in model.assocs() {
                if !def.recon_evidence {
                    continue;
                }
                // I am the subject: look at my objects.
                if def.domain == entries[i].class {
                    for &n in store.neighbors(obj, assoc) {
                        push_evidence(
                            store,
                            &index_of,
                            &mut channels,
                            direct_channel(assoc.0, false),
                            n,
                            assoc.0,
                            i as u32,
                            reconcilable(def.range),
                            true,
                            max_fanout,
                        );
                    }
                }
                // I am the object: look at my subjects.
                if def.range == entries[i].class {
                    for &n in store.inverse_neighbors(obj, assoc) {
                        push_evidence(
                            store,
                            &index_of,
                            &mut channels,
                            direct_channel(assoc.0, true),
                            n,
                            assoc.0,
                            i as u32,
                            reconcilable(def.domain),
                            false,
                            max_fanout,
                        );
                    }
                }
            }
            let mut list: Vec<(u32, Vec<u32>)> = channels.into_iter().collect();
            list.sort_by_key(|(c, _)| *c);
            for (_, ns) in &mut list {
                ns.sort_unstable();
                ns.dedup();
                ns.truncate(max_fanout);
            }
            entries[i].neighbors = list;
        }

        RefTable {
            entries,
            index_of,
            vocab: vocab.finish(),
        }
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table has no references.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Indices of references of a class.
    pub fn of_class(&self, class: ClassId) -> impl Iterator<Item = u32> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(move |(_, e)| e.class == class)
            .map(|(i, _)| i as u32)
    }
}

/// Record evidence from a neighbouring object `n`: directly when `n` is
/// itself a reconcilable reference, and — in both cases — through `n`
/// (one extra hop) to the reconcilable references attached to it. The hop
/// through a reconcilable neighbour yields channels like
/// `(AuthoredBy, AuthoredBy)`: a person's *co-authors*, the evidence SEMEX's
/// derived associations expose; the hop through a structural object yields
/// correspondence-style evidence (sender → message → recipients).
#[allow(clippy::too_many_arguments)]
fn push_evidence(
    store: &Store,
    index_of: &HashMap<ObjectId, u32>,
    channels: &mut HashMap<u32, Vec<u32>>,
    direct_ch: u32,
    n: ObjectId,
    via_assoc: u16,
    me: u32,
    neighbor_reconcilable: bool,
    _i_am_subject: bool,
    max_fanout: usize,
) {
    if neighbor_reconcilable {
        if let Some(&ni) = index_of.get(&n) {
            let v = channels.entry(direct_ch).or_default();
            if v.len() < max_fanout {
                v.push(ni);
            }
        }
    }
    // Hop: every reconcilable reference attached to `n` over any evidence
    // association becomes a two-hop neighbour.
    let model = store.model();
    let n_class = store.class_of(n);
    for (assoc2, def2) in model.assocs() {
        if !def2.recon_evidence {
            continue;
        }
        if def2.domain == n_class && model.class_def(def2.range).reconcilable {
            for &m in store.neighbors(n, assoc2) {
                if let Some(&mi) = index_of.get(&m) {
                    if mi != me {
                        let v = channels
                            .entry(hop_channel(via_assoc, assoc2.0))
                            .or_default();
                        if v.len() < max_fanout {
                            v.push(mi);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_extract::{bibtex::extract_bibtex, email::extract_mbox, ExtractContext};
    use semex_model::names::class;
    use semex_store::{SourceInfo, SourceKind};

    fn table() -> (Store, RefTable) {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let mut ctx = ExtractContext::new(&mut st, src);
        extract_bibtex(
            "@inproceedings{a, title={Semantic Desktop Search}, author={Dong, Xin and Halevy, Alon}, booktitle={SIGMOD}, year=2005}\n\
             @inproceedings{b, title={Semantic Desktop Search Systems}, author={X. Dong and A. Halevy}, booktitle={SIGMOD Conference}, year=2005}",
            &mut ctx,
        )
        .unwrap();
        extract_mbox(
            "From: Xin Dong <luna@x.edu>\nTo: Alon Halevy <alon@x.edu>\nSubject: hi\n\nbody",
            &mut ctx,
        )
        .unwrap();
        let t = RefTable::build(&st, 64);
        (st, t)
    }

    #[test]
    fn only_reconcilable_classes_included() {
        let (st, t) = table();
        let model = st.model();
        let c_msg = model.class(class::MESSAGE).unwrap();
        assert!(t.entries.iter().all(|e| e.class != c_msg));
        // 2 pubs + 4 bib authors + 2 email people + 2 venues = 10.
        assert_eq!(t.len(), 10);
    }

    #[test]
    fn attributes_cached() {
        let (st, t) = table();
        let model = st.model();
        let c_pub = model.class(class::PUBLICATION).unwrap();
        let pubs: Vec<u32> = t.of_class(c_pub).collect();
        assert_eq!(pubs.len(), 2);
        let e = &t.entries[pubs[0] as usize];
        assert!(t.vocab.titles[e.titles[0] as usize].starts_with("Semantic Desktop Search"));
        assert_eq!(e.years, vec![2005]);
    }

    #[test]
    fn direct_neighbors_exist() {
        let (st, t) = table();
        let model = st.model();
        let c_pub = model.class(class::PUBLICATION).unwrap();
        let c_person = model.class(class::PERSON).unwrap();
        for pi in t.of_class(c_pub) {
            let e = &t.entries[pi as usize];
            // Publications see their authors and venue.
            assert!(e.all_neighbors().count() >= 3, "authors + venue");
        }
        // Bib persons see their publications (inverse AuthoredBy).
        let persons_with_pub_evidence = t
            .of_class(c_person)
            .filter(|&i| t.entries[i as usize].all_neighbors().count() > 0)
            .count();
        assert!(persons_with_pub_evidence >= 4);
    }

    #[test]
    fn structural_hop_links_correspondents() {
        let (st, t) = table();
        let model = st.model();
        let c_person = model.class(class::PERSON).unwrap();
        // The email sender should have a two-hop channel to the recipient
        // (Sender⁻¹ through the Message to Recipient).
        let email_people: Vec<u32> = t
            .of_class(c_person)
            .filter(|&i| !t.entries[i as usize].emails.is_empty())
            .collect();
        assert_eq!(email_people.len(), 2);
        let hop_neighbors: usize = email_people
            .iter()
            .map(|&i| {
                t.entries[i as usize]
                    .channels()
                    .filter(|c| c & (1 << 24) != 0)
                    .count()
            })
            .sum();
        assert!(hop_neighbors >= 2, "both correspondents get hop evidence");
    }

    #[test]
    fn channel_lookup() {
        let e = RefEntry {
            neighbors: vec![(3, vec![1, 2]), (9, vec![5])],
            ..Default::default()
        };
        assert_eq!(e.channel(3), &[1, 2]);
        assert_eq!(e.channel(9), &[5]);
        assert!(e.channel(4).is_empty());
        assert_eq!(e.all_neighbors().count(), 3);
        assert_ne!(direct_channel(3, false), direct_channel(3, true));
        assert_ne!(hop_channel(1, 2), hop_channel(2, 1));
    }
}
