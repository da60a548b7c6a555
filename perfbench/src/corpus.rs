//! Seeded inputs and the benchmark's own oracles: ground-truth labels and
//! pairwise F1, a brute-force path walk and a triple count, none of which
//! use the program's evaluation code.

use semex_core::{SemexBuilder, SemexConfig};
use semex_corpus::{CorpusConfig, EntityKind, GroundTruth, PersonalCorpus};
use semex_model::names::{attr, class};
use semex_store::{ObjectId, Store};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::Path;

/// A personal corpus at `scale` × the default desktop size.
pub fn personal(seed: u64, scale: f64) -> PersonalCorpus {
    let cfg = CorpusConfig {
        seed,
        ..CorpusConfig::default()
    }
    .scaled_size(scale);
    semex_corpus::generate_personal(&cfg)
}

/// Write `files` under `dir`, replacing whatever was there.
pub fn write_files(files: &[(String, String)], dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    for (rel, content) in files {
        let path = dir.join(rel);
        std::fs::create_dir_all(path.parent().expect("relative file path"))
            .expect("create corpus directory");
        std::fs::write(path, content).expect("write corpus file");
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// Copy the files of a (flat) space directory.
pub fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create copy directory");
    for e in std::fs::read_dir(from)
        .expect("read space directory")
        .flatten()
    {
        if e.file_type().is_ok_and(|t| t.is_file()) {
            std::fs::copy(e.path(), to.join(e.file_name())).expect("copy space file");
        }
    }
}

/// Ground-truth labels of extracted references, by object slot:
/// `kind_tag << 32 | entity`. They are read from a build that skips
/// reconciliation, whose slots are the same references a reconciled
/// build of the same sources allocates.
pub struct Labels {
    pub slots: usize,
    pub by_slot: Vec<(ObjectId, u64)>,
}

impl Labels {
    pub fn of_directory(dir: &Path, truth: &GroundTruth) -> Labels {
        let raw = SemexBuilder::new()
            .with_config(SemexConfig {
                skip_recon: true,
                ..SemexConfig::default()
            })
            .add_directory("desktop", dir)
            .build()
            .expect("raw extraction of the corpus");
        Labels::of_store(raw.store(), truth)
    }

    pub fn of_store(store: &Store, truth: &GroundTruth) -> Labels {
        let model = store.model();
        let a = |n| model.attr(n).expect("builtin attribute");
        let (name, email, title) = (a(attr::NAME), a(attr::EMAIL), a(attr::TITLE));
        let kinds = [
            (class::PERSON, EntityKind::Person, 1u64),
            (class::PUBLICATION, EntityKind::Publication, 2),
            (class::VENUE, EntityKind::Venue, 3),
            (class::ORGANIZATION, EntityKind::Organization, 4),
        ];
        let mut by_slot = Vec::new();
        for (cname, kind, tag) in kinds {
            let cid = model.class(cname).expect("builtin class");
            for obj in store.objects_of_class(cid) {
                let o = store.object(obj);
                let mut entity = None;
                if kind == EntityKind::Person {
                    entity = o.strs(email).find_map(|e| truth.entity_of(kind, e));
                }
                if entity.is_none() {
                    let key = if kind == EntityKind::Publication {
                        title
                    } else {
                        name
                    };
                    entity = o.strs(key).find_map(|f| truth.entity_of(kind, f));
                }
                if let Some(e) = entity {
                    by_slot.push((obj, (tag << 32) | e as u64));
                }
            }
        }
        by_slot.sort();
        Labels {
            slots: store.slot_count(),
            by_slot,
        }
    }
}

/// Pairwise counts over labelled references: true positives, pairs in a
/// common cluster, pairs with a common label, and labelled pairs of
/// different entity kinds that resolve to one object.
#[derive(Debug, Default, Clone, Copy)]
pub struct PairCounts {
    pub tp: u64,
    pub clustered: u64,
    pub truth: u64,
    pub cross_kind: u64,
}

impl PairCounts {
    pub fn of(labels: &Labels, store: &Store) -> PairCounts {
        let pairs = |n: u64| n * n.saturating_sub(1) / 2;
        let mut by_cluster: HashMap<ObjectId, u64> = HashMap::new();
        let mut by_label: HashMap<u64, u64> = HashMap::new();
        let mut by_both: HashMap<(ObjectId, u64), u64> = HashMap::new();
        let mut kinds: HashMap<ObjectId, BTreeSet<u64>> = HashMap::new();
        for &(slot, label) in &labels.by_slot {
            let c = store.resolve(slot);
            *by_cluster.entry(c).or_default() += 1;
            *by_label.entry(label).or_default() += 1;
            *by_both.entry((c, label)).or_default() += 1;
            kinds.entry(c).or_default().insert(label >> 32);
        }
        PairCounts {
            tp: by_both.values().map(|&n| pairs(n)).sum(),
            clustered: by_cluster.values().map(|&n| pairs(n)).sum(),
            truth: by_label.values().map(|&n| pairs(n)).sum(),
            cross_kind: kinds.values().filter(|k| k.len() > 1).count() as u64,
        }
    }

    pub fn add(self, o: PairCounts) -> PairCounts {
        PairCounts {
            tp: self.tp + o.tp,
            clustered: self.clustered + o.clustered,
            truth: self.truth + o.truth,
            cross_kind: self.cross_kind + o.cross_kind,
        }
    }

    pub fn f1(&self) -> f64 {
        let p = self.tp as f64 / self.clustered.max(1) as f64;
        let r = self.tp as f64 / self.truth.max(1) as f64;
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// `(relative path, content)` files.
pub type Files = Vec<(String, String)>;

/// Split the corpus mail into the messages kept in the desktop and the
/// last `held_out` messages (by generation order), which arrive later.
/// Returns the desktop files and the held-out `(message-id, text)` pairs.
pub fn hold_out_mail(corpus: &PersonalCorpus, held_out: usize) -> (Files, Vec<(String, String)>) {
    let mut messages: Vec<(usize, String)> = Vec::new();
    let mut files = Vec::new();
    for (path, content) in &corpus.files {
        if !path.ends_with(".mbox") {
            files.push((path.clone(), content.clone()));
            continue;
        }
        for chunk in content
            .split_inclusive("\n\n")
            .fold(Vec::<String>::new(), |mut acc, part| {
                if part.starts_with("From corpus ") || acc.is_empty() {
                    acc.push(part.to_string());
                } else {
                    acc.last_mut().expect("non-empty").push_str(part);
                }
                acc
            })
        {
            let index: usize = chunk["From corpus ".len()..]
                .split('\n')
                .next()
                .and_then(|n| n.parse().ok())
                .expect("generated mbox separator carries the message index");
            messages.push((index, chunk));
        }
    }
    messages.sort_by_key(|(i, _)| *i);
    let cut = messages.len().saturating_sub(held_out);
    let tail = messages.split_off(cut);
    // The generator files even-numbered messages in the inbox and odd ones
    // in the archive; keep that layout for the desktop part.
    let (mut inbox, mut archive) = (String::new(), String::new());
    for (i, m) in &messages {
        if i % 2 == 0 {
            inbox.push_str(m)
        } else {
            archive.push_str(m)
        }
    }
    files.push(("mail/inbox.mbox".to_string(), inbox));
    files.push(("mail/archive.mbox".to_string(), archive));
    let held = tail
        .into_iter()
        .map(|(i, m)| (format!("msg{i}@corpus.example"), m))
        .collect();
    (files, held)
}

/// One hop of a brute-force path walk.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    pub forward: bool,
    pub assoc: &'static str,
}

/// The path text the server is asked, with its hops for the oracle.
pub fn path_text(start: ObjectId, hops: &[Hop]) -> String {
    let mut s = format!("o{}", start.0);
    for h in hops {
        s.push_str(if h.forward { " ->" } else { " <-" });
        s.push_str(h.assoc);
    }
    s
}

/// Objects reached from `start` over `hops`, walking the store's adjacency
/// lists directly, in ascending id order.
pub fn walk(store: &Store, start: ObjectId, hops: &[Hop]) -> Vec<ObjectId> {
    let mut frontier: BTreeSet<ObjectId> = [store.resolve(start)].into();
    for h in hops {
        let assoc = store.model().assoc(h.assoc).expect("builtin association");
        let mut next = BTreeSet::new();
        for &x in &frontier {
            let ns = if h.forward {
                store.neighbors(x, assoc)
            } else {
                store.inverse_neighbors(x, assoc)
            };
            next.extend(ns.iter().map(|&n| store.resolve(n)));
        }
        frontier = next;
    }
    frontier.into_iter().collect()
}

/// Link label → count of distinct neighbours around `obj`, counted from
/// the store's triples: forward links under the association's name,
/// inverse links under its inverse label.
pub fn triple_counts(store: &Store, obj: ObjectId) -> Vec<(String, usize)> {
    let obj = store.resolve(obj);
    let model = store.model();
    let mut seen: BTreeSet<(bool, semex_model::AssocId, ObjectId)> = BTreeSet::new();
    for t in store.triples() {
        if t.subject == obj {
            seen.insert((true, t.assoc, t.object));
        }
        if t.object == obj {
            seen.insert((false, t.assoc, t.subject));
        }
    }
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for (fwd, assoc, _) in seen {
        let def = model.assoc_def(assoc);
        let label = if fwd { &def.name } else { &def.inverse_label };
        *counts.entry(label.clone()).or_default() += 1;
    }
    counts.into_iter().collect()
}

/// Lower-case words of at least four letters from the labels of a space's
/// objects, deduplicated and sorted: the vocabulary reads are drawn from.
pub fn vocabulary(store: &Store) -> Vec<String> {
    let mut words = BTreeSet::new();
    for obj in store.objects() {
        for w in store.label(obj).split(|c: char| !c.is_alphabetic()) {
            if w.chars().count() >= 4 {
                words.insert(w.to_lowercase());
            }
        }
    }
    words.into_iter().collect()
}

/// A zipf(1) sampler over ranks `0..n`.
pub struct Zipf(Vec<f64>);

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf(cdf)
    }

    pub fn sample(&self, rng: &mut impl rand::Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}
