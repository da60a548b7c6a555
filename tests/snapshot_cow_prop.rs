//! Copy-on-write isolation: a published snapshot shares every chunk of
//! store and index with the master until the master writes, so a write
//! must never show through to a snapshot taken before it.
//!
//! A seeded write sequence runs on a durable platform: ingests of held-out
//! mail, cards and bibliography records, CSV integration, `assert_same`
//! merges over any class (stale alias ids included, so merge chains form),
//! and live model extensions shipped as a replicated batch. After every
//! write a snapshot is taken and what it answers is recorded: its store
//! image, its index image, search hits and every slot's neighbours. Every
//! earlier snapshot must still answer exactly what was recorded when it was
//! taken, and the newest must hold the master's images byte for byte. The
//! merges tombstone enough documents that the index compacts itself during
//! the sequence, which rewrites every chunk of the index.

use proptest::prelude::*;
use semex::core::{SearchResult, Snapshot, SourceSpec};
use semex::corpus::{generate_personal, CorpusConfig};
use semex::index::index_tokens;
use semex::journal::JournalConfig;
use semex::model::{AssocDef, ClassDef, Value};
use semex::store::{ObjectId, SourceId, StoreEvent};
use semex::{DurableSemex, SemexBuilder};
use std::path::PathBuf;

/// xorshift64*: deterministic op sequences.
struct Rng(u64);
impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n.max(1)
    }
}

/// Split a source into records: lines starting with `marker` open one.
fn records(text: &str, marker: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with(marker) || out.is_empty() {
            out.push(String::new());
        }
        let cur = out.last_mut().expect("opened above");
        cur.push_str(line);
        cur.push('\n');
    }
    out
}

/// A durable platform built from two thirds of a generated desktop, the
/// held-out records as ingestible sources, and CSV rows naming its people.
fn desk(seed: u64, dir: &std::path::Path) -> (DurableSemex, Vec<SourceSpec>, Vec<String>) {
    let corpus = generate_personal(&CorpusConfig::tiny(seed));
    let file = |suffix: &str| -> String {
        corpus
            .files
            .iter()
            .filter(|(p, _)| p.ends_with(suffix))
            .map(|(_, c)| c.as_str())
            .collect()
    };
    let mut held = Vec::new();
    let mut builder = SemexBuilder::new();
    for (suffix, marker) in [(".bib", "@"), (".mbox", "From "), (".vcf", "BEGIN:VCARD")] {
        let mut kept = String::new();
        for (i, content) in records(&file(suffix), marker).into_iter().enumerate() {
            if i % 3 != 1 {
                kept.push_str(&content);
                continue;
            }
            let name = format!("held{}{suffix}", held.len());
            held.push(match suffix {
                ".bib" => SourceSpec::Bibtex { name, content },
                ".mbox" => SourceSpec::Mbox { name, content },
                _ => SourceSpec::Vcard { name, content },
            });
        }
        builder = match suffix {
            ".bib" => builder.add_bibtex("base.bib", kept),
            ".mbox" => builder.add_mbox("base.mbox", kept),
            _ => builder.add_vcards("base.vcf", kept),
        };
    }
    let rows = corpus
        .world
        .people
        .iter()
        .map(|p| format!("{},{}", p.canonical_name(), p.emails[0]))
        .collect();
    let config = JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    };
    let semex = builder.build().expect("the desk builds");
    let semex = semex.into_durable(dir, config).expect("the desk journals");
    (semex, held, rows)
}

/// What a snapshot answered when it was taken.
#[derive(PartialEq, Debug)]
struct Answers {
    store: Vec<u8>,
    index: Vec<u8>,
    hits: Vec<Vec<SearchResult>>,
    neighbours: Vec<Vec<ObjectId>>,
}

fn answers(snap: &Snapshot, words: &[String]) -> Answers {
    let store = snap.store();
    let mut neighbours = Vec::new();
    for slot in 0..store.slot_count() as u64 {
        for (assoc, _) in store.model().assocs() {
            neighbours.push(store.neighbors(ObjectId(slot), assoc).to_vec());
            neighbours.push(store.inverse_neighbors(ObjectId(slot), assoc).to_vec());
        }
    }
    Answers {
        store: store.to_binary().expect("the store encodes"),
        index: snap.index().to_sidecar(0, 0),
        hits: words.iter().map(|w| snap.search(w, 10)).collect(),
        neighbours,
    }
}

/// A model extension (a class, and an association to it from Person) and
/// one instance linked to a person, as one replicated batch.
fn extension(semex: &DurableSemex, step: usize, rng: &mut Rng) -> Vec<StoreEvent> {
    let store = semex.store();
    let mut model = store.model().clone();
    let person = model.class("Person").expect("builtin class");
    let name = model.attr("name").expect("builtin attribute");
    let badge = model
        .add_class(ClassDef::new(format!("Badge{step}")))
        .expect("a fresh class name");
    let wears = model
        .add_assoc(AssocDef::new(
            format!("Wears{step}"),
            person,
            badge,
            format!("WornBy{step}"),
        ))
        .expect("a fresh association name");
    let people: Vec<ObjectId> = store.objects_of_class(person).collect();
    let object = ObjectId(store.slot_count() as u64);
    vec![
        StoreEvent::SyncModel { model },
        StoreEvent::AddObject { class: badge },
        StoreEvent::AddAttr {
            object,
            attr: name,
            value: Value::from(format!("badge number {step}").as_str()),
        },
        StoreEvent::AddTriple {
            subject: people[rng.below(people.len())],
            assoc: wears,
            object,
            source: SourceId(0),
        },
    ]
}

/// Runs one seeded sequence; returns how many times the index compacted.
fn run(seed: u64) -> usize {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("semex-cow-{seed}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (mut semex, mut held, rows) = desk(seed, &dir);
    let mut rng = Rng(seed | 1);
    let words: Vec<String> = semex
        .store()
        .objects()
        .take(16)
        .flat_map(|o| index_tokens(&semex.store().label(o)))
        .collect();
    let mut taken: Vec<(Snapshot, Answers)> = Vec::new();
    let mut compactions = 0;
    for step in 0..48 {
        let dead_before = semex.index().dead_doc_count();
        match rng.below(12) {
            0..=3 if !held.is_empty() => {
                let spec = held.remove(rng.below(held.len()));
                semex.ingest(spec).expect("ingest");
            }
            0..=4 => {
                let mut csv = String::from("full name,e-mail\n");
                for _ in 0..1 + rng.below(3) {
                    csv.push_str(&rows[rng.below(rows.len())]);
                    csv.push('\n');
                }
                semex
                    .integrate(&format!("table{step}"), &csv)
                    .expect("integrate");
            }
            5 => {
                let events = extension(&semex, step, &mut rng);
                let head = semex.journal().expect("durable").next_seq();
                semex.apply_replicated(head, &events).expect("extension");
            }
            _ => {
                // Two slots of one class, aliases included: a stale id
                // merges through its chain.
                let store = semex.store();
                let a = ObjectId(rng.below(store.slot_count()) as u64);
                let class = store.object_raw(a).expect("a slot").class;
                let same: Vec<ObjectId> = (0..store.slot_count() as u64)
                    .map(ObjectId)
                    .filter(|&o| o != a && store.object_raw(o).expect("a slot").class == class)
                    .collect();
                if let Some(&b) = same.get(rng.below(same.len())) {
                    semex.assert_same(a, b).expect("merge");
                }
            }
        }
        semex.commit().expect("commit");
        if semex.index().dead_doc_count() < dead_before {
            compactions += 1;
        }
        let snap = semex.snapshot();
        let seen = answers(&snap, &words);
        assert_eq!(
            seen.store,
            semex.store().to_binary().unwrap(),
            "seed {seed} step {step}: the snapshot's store image is the master's"
        );
        assert_eq!(
            seen.index,
            semex.index().to_sidecar(0, 0),
            "seed {seed} step {step}: the snapshot's index image is the master's"
        );
        taken.push((snap, seen));
        for (i, (old, recorded)) in taken.iter().enumerate() {
            assert!(
                answers(old, &words) == *recorded,
                "seed {seed}: the snapshot of step {i} changed by step {step}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    compactions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn earlier_snapshots_never_see_later_writes(seed in 1u64..1_000_000) {
        let compactions = run(seed);
        prop_assert!(compactions > 0, "seed {}: the index never compacted", seed);
    }
}
