//! The reference table: a cached, reconciliation-oriented view of a store.

use semex_model::names::{attr, class};
use semex_model::{AssocId, AttrId, ClassId, DomainModel};
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
    /// Per field: value fingerprint → id. Each string is owned once, by
    /// its field's list; the map holds only its fingerprint.
    ids: [HashMap<u64, u32>; 4],
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

/// Id of `s` in `strs`, appending it when new. The map is keyed by a 64-bit
/// fingerprint and every hit is checked against the stored string; a
/// fingerprint collision falls back to a scan, so interning stays exact.
fn intern(ids: &mut HashMap<u64, u32>, strs: &mut Vec<String>, s: &str) -> u32 {
    let h = crate::blocking::key_hash("", s);
    match ids.get(&h) {
        Some(&id) if strs[id as usize] == s => return id,
        Some(_) => {
            if let Some(i) = strs.iter().position(|x| x == s) {
                return i as u32;
            }
        }
        None => {
            ids.insert(h, strs.len() as u32);
        }
    }
    strs.push(s.to_owned());
    strs.len() as u32 - 1
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

/// The model's attribute ids that reference rows cache.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RowAttrs {
    name: Option<AttrId>,
    email: Option<AttrId>,
    title: Option<AttrId>,
    abbrev: Option<AttrId>,
    year: Option<AttrId>,
}

impl RowAttrs {
    pub fn of(model: &DomainModel) -> RowAttrs {
        RowAttrs {
            name: model.attr(attr::NAME),
            email: model.attr(attr::EMAIL),
            title: model.attr(attr::TITLE),
            abbrev: model.attr(attr::ABBREVIATION),
            year: model.attr(attr::YEAR),
        }
    }

    /// Read the attribute row of live object `obj` of a reconcilable
    /// `class`, interning its strings into `vocab`. Neighbours stay empty.
    pub fn read(
        &self,
        store: &Store,
        vocab: &mut VocabBuilder,
        obj: ObjectId,
        class: ClassId,
        kind: RefKind,
    ) -> RefEntry {
        let o = store.object(obj);
        let strs = |attr: Option<AttrId>| attr.into_iter().flat_map(|a| o.strs(a));
        RefEntry {
            obj,
            class,
            kind,
            names: strs(self.name).map(|s| vocab.name(s)).collect(),
            emails: strs(self.email)
                .map(|s| vocab.email(&s.to_lowercase()))
                .collect(),
            titles: strs(self.title).map(|s| vocab.title(s)).collect(),
            abbrevs: strs(self.abbrev).map(|s| vocab.abbrev(s)).collect(),
            years: self
                .year
                .map(|a| o.values(a).filter_map(|v| v.as_int()).collect())
                .unwrap_or_default(),
            neighbors: Vec::new(),
        }
    }
}

/// The comparator kind of a class, or `None` when it is not reconcilable.
pub(crate) fn kind_of(model: &DomainModel, class: ClassId) -> Option<RefKind> {
    let def = model.class_def(class);
    def.reconcilable.then_some(match def.name.as_str() {
        class::PERSON => RefKind::Person,
        class::PUBLICATION => RefKind::Publication,
        class::VENUE => RefKind::Venue,
        class::ORGANIZATION => RefKind::Organization,
        _ => RefKind::Other,
    })
}

impl RefTable {
    /// Build the table from a store: one entry per live object of each
    /// reconcilable class, with evidence neighbours for every entry,
    /// capped at `max_fanout` per channel.
    pub fn build(store: &Store, max_fanout: usize) -> RefTable {
        let mut table = RefTable::attributes(store);
        let all: Vec<u32> = (0..table.len() as u32).collect();
        table.link(store, &all, max_fanout);
        table
    }

    /// The table's attribute rows only, in global order: class order, then
    /// slot order. No entry has neighbours yet (see [`RefTable::link`]).
    pub(crate) fn attributes(store: &Store) -> RefTable {
        let model = store.model();
        let attrs = RowAttrs::of(model);
        let mut entries: Vec<RefEntry> = Vec::new();
        let mut index_of: HashMap<ObjectId, u32> = HashMap::new();
        let mut vocab = VocabBuilder::default();
        for (class_id, _) in model.classes() {
            let Some(kind) = kind_of(model, class_id) else {
                continue;
            };
            for obj in store.objects_of_class(class_id) {
                index_of.insert(obj, entries.len() as u32);
                entries.push(attrs.read(store, &mut vocab, obj, class_id, kind));
            }
        }
        RefTable {
            entries,
            index_of,
            vocab: vocab.finish(),
        }
    }

    /// Fill in the evidence neighbours of the entries `refs`. The engine
    /// links only candidate endpoints: nothing reads any other entry's
    /// neighbours.
    pub(crate) fn link(&mut self, store: &Store, refs: &[u32], max_fanout: usize) {
        let plan = EvidencePlan::new(store.model());
        for &r in refs {
            let e = &self.entries[r as usize];
            let ns = plan.neighbors(store, e.obj, e.class, max_fanout, |o| {
                self.index_of.get(&o).copied()
            });
            self.entries[r as usize].neighbors = ns;
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

/// The evidence associations of a model, scanned once per run instead of
/// once per neighbour object.
#[derive(Debug)]
pub(crate) struct EvidencePlan {
    /// Per class: the associations a reference of the class draws direct
    /// evidence over, in model order — `(assoc, inverse, far side
    /// reconcilable)`, forward before inverse for self-associations.
    direct: Vec<Vec<(AssocId, bool, bool)>>,
    /// Per class: evidence associations from an object of the class to a
    /// reconcilable class (the second step of a two-hop channel).
    hop: Vec<Vec<AssocId>>,
}

impl EvidencePlan {
    pub fn new(model: &DomainModel) -> EvidencePlan {
        let n = model.class_count();
        let mut plan = EvidencePlan {
            direct: vec![Vec::new(); n],
            hop: vec![Vec::new(); n],
        };
        let reconcilable = |c: ClassId| model.class_def(c).reconcilable;
        for (assoc, def) in model.assocs() {
            if !def.recon_evidence {
                continue;
            }
            plan.direct[def.domain.index()].push((assoc, false, reconcilable(def.range)));
            plan.direct[def.range.index()].push((assoc, true, reconcilable(def.domain)));
            if reconcilable(def.range) {
                plan.hop[def.domain.index()].push(assoc);
            }
        }
        plan
    }

    /// Evidence neighbours of reference `obj` of `class`, grouped by
    /// channel in channel order, each list sorted, deduplicated and capped
    /// at `max_fanout`. `key` maps a live object to its reference key
    /// (`None` when it is not a reference); keys must sort in the table's
    /// global order.
    pub fn neighbors<K: Copy + Ord>(
        &self,
        store: &Store,
        obj: ObjectId,
        class: ClassId,
        max_fanout: usize,
        key: impl Fn(ObjectId) -> Option<K>,
    ) -> Vec<(u32, Vec<K>)> {
        let me = key(obj);
        let mut channels: Vec<(u32, Vec<K>)> = Vec::new();
        let mut push = |ch: u32, k: K| {
            let v = match channels.iter().position(|(c, _)| *c == ch) {
                Some(i) => &mut channels[i].1,
                None => {
                    channels.push((ch, Vec::new()));
                    &mut channels.last_mut().expect("just pushed").1
                }
            };
            if v.len() < max_fanout {
                v.push(k);
            }
        };
        for &(assoc, inverse, far_reconcilable) in &self.direct[class.index()] {
            let far = if inverse {
                store.inverse_neighbors(obj, assoc)
            } else {
                store.neighbors(obj, assoc)
            };
            for &n in far {
                // Record evidence from the neighbouring object `n`: directly
                // when it is itself a reference, and — in both cases —
                // through it (one extra hop) to the references attached to
                // it. The hop through a reference yields channels like
                // `(AuthoredBy, AuthoredBy)`: a person's co-authors; the hop
                // through a structural object yields correspondence-style
                // evidence (sender → message → recipients).
                if far_reconcilable {
                    if let Some(k) = key(n) {
                        push(direct_channel(assoc.0, inverse), k);
                    }
                }
                for &assoc2 in &self.hop[store.class_of(n).index()] {
                    for &m in store.neighbors(n, assoc2) {
                        if let Some(k) = key(m) {
                            if Some(k) != me {
                                push(hop_channel(assoc.0, assoc2.0), k);
                            }
                        }
                    }
                }
            }
        }
        channels.sort_by_key(|(c, _)| *c);
        for (_, ns) in &mut channels {
            ns.sort_unstable();
            ns.dedup();
            ns.truncate(max_fanout);
        }
        channels
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
