//! One publish path for store events, checked four ways. A seeded write
//! sequence runs on a durable platform with index batching off (committing
//! every write, compacting half-way) and on a twin with batching on
//! (committing every third write). Each commit batch of the first is
//! shipped to a follower through the replicated path, and the first's
//! journal is finally recovered on top of its half-way index sidecar. All
//! four must hold byte-identical store images, indexes that answer every
//! query like a fresh build (byte-identical images where the index took the
//! same deltas: the follower folds exactly the plain platform's batches),
//! reconciliation states equal to a fresh build, and the same partition
//! after one further ingest. A replicated batch that fails part-way must leave the index and
//! the reconciliation state current with the prefix that applied.

use semex::core::SourceSpec;
use semex::corpus::{generate_personal, CorpusConfig};
use semex::index::{index_tokens, Hit, SearchIndex};
use semex::journal::JournalConfig;
use semex::recon::ReconState;
use semex::store::{ObjectId, Store, StoreEvent};
use semex::{DurableSemex, Semex, SemexBuilder};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

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

/// A platform built from part of a generated desktop, the held-out
/// records as ingestible sources, and CSV rows naming its people.
fn desk(seed: u64) -> (Semex, Vec<SourceSpec>, Vec<String>) {
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
    (builder.build().expect("the desk builds"), held, rows)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("semex-publish-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn journal_config() -> JournalConfig {
    JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn open(dir: &Path) -> DurableSemex {
    Semex::open_durable_with(dir, Default::default(), journal_config())
        .unwrap()
        .0
}

/// Every slot's live object: equal partitions give equal vectors.
fn partition(store: &Store) -> Vec<ObjectId> {
    (0..store.slot_count() as u64)
        .map(|s| store.resolve(ObjectId(s)))
        .collect()
}

/// The index image of a platform, stamped alike for every platform.
fn index_image(semex: &Semex) -> Vec<u8> {
    semex.index().to_sidecar(0, 0)
}

/// Everything an index answers over `store`: its corpus statistics and
/// the exhaustive hits (scores to the bit) of every token the store's
/// string values index to. Indexes that took deltas in different batches
/// differ in slot layout and term numbering, never in these.
fn answers(index: &SearchIndex, store: &Store) -> (usize, usize, f64, Vec<Vec<Hit>>) {
    let mut tokens = BTreeSet::new();
    for obj in store.objects() {
        for (_, value) in &store.object(obj).attrs {
            tokens.extend(value.as_str().map(index_tokens).unwrap_or_default());
        }
    }
    let k = store.object_count();
    let hits = tokens
        .iter()
        .map(|t| index.search_str_exhaustive(store, t, k))
        .collect();
    (
        index.doc_count(),
        index.term_count(),
        index.avg_doc_len(),
        hits,
    )
}

/// A built reconciliation state must equal a fresh build over the store,
/// field for field (its `Debug` form lists every field in order).
fn assert_recon_current(semex: &Semex, what: &str) {
    if let Some(state) = semex.recon_state() {
        let fresh = ReconState::new(semex.store());
        assert!(format!("{state:?}") == format!("{fresh:?}"), "{what}");
    }
}

/// Runs one seeded sequence the four ways; returns the events it wrote.
fn run(seed: u64) -> u64 {
    let (built, mut held, rows) = desk(seed);
    let dirs =
        ["plain", "batched", "follower", "recovered"].map(|t| scratch(&format!("{t}{seed}")));
    let mut plain = built.into_durable(&dirs[0], journal_config()).unwrap();
    copy_dir(&dirs[0], &dirs[1]);
    copy_dir(&dirs[0], &dirs[2]);
    let mut batched = open(&dirs[1]);
    batched.set_index_batching(true);
    let mut follower = open(&dirs[2]);
    let base = plain.journal().unwrap().next_seq();
    let last = held.pop().expect("one record is kept for the final ingest");
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let person = plain.store().model().class("Person").unwrap();
    let steps = 24;
    for step in 0..steps {
        match rng.below(10) {
            0..=5 if !held.is_empty() => {
                let spec = held.remove(rng.below(held.len()));
                plain.ingest(spec.clone()).unwrap();
                batched.ingest(spec).unwrap();
            }
            0..=7 => {
                let mut csv = String::from("full name,e-mail\n");
                for _ in 0..1 + rng.below(3) {
                    csv.push_str(&rows[rng.below(rows.len())]);
                    csv.push('\n');
                }
                let name = format!("table{step}");
                let want = plain.integrate(&name, &csv).unwrap();
                assert_eq!(batched.integrate(&name, &csv).unwrap(), want);
            }
            _ => {
                let people: Vec<ObjectId> = plain.store().objects_of_class(person).collect();
                let (a, b) = (
                    people[rng.below(people.len())],
                    people[rng.below(people.len())],
                );
                plain.assert_same(a, b).unwrap();
                batched.assert_same(a, b).unwrap();
            }
        }
        // Ship exactly what the commit journals to the follower, which
        // commits after each batch as a serving writer does.
        let start = plain.journal().unwrap().next_seq();
        let batch = plain.store().events_since(start).to_vec();
        assert_eq!(plain.commit().unwrap(), batch.len());
        let head = follower.apply_replicated(start, &batch).unwrap();
        assert_eq!(
            follower.commit().unwrap(),
            0,
            "a replicated batch is journaled once"
        );
        assert_eq!(
            head,
            plain.journal().unwrap().next_seq(),
            "seed {seed} step {step}"
        );
        if step == steps / 2 {
            plain.compact().unwrap();
        }
        if step % 3 == 2 {
            batched.commit().unwrap();
        }
    }
    batched.commit().unwrap();
    assert_eq!(
        batched.journal().unwrap().next_seq(),
        plain.journal().unwrap().next_seq()
    );
    assert_recon_current(&plain, "plain");
    assert_recon_current(&batched, "batched");

    // Recovery: the compaction's sidecar is older than the journal head,
    // so the index starts at its stamp and publishes the replayed tail.
    copy_dir(&dirs[0], &dirs[3]);
    let recovered = open(&dirs[3]);
    assert_eq!(
        recovered.index().apply_calls(),
        1,
        "seed {seed}: the sidecar plus one tail fold, not a rebuild"
    );
    assert!(index_image(&follower) == index_image(&plain), "seed {seed}");
    let mut spaces = [plain, batched, follower, recovered];
    let names = ["plain", "batched", "follower", "recovered"];
    let store_image = spaces[0].store().to_binary().unwrap();
    let index = answers(&SearchIndex::build(spaces[0].store()), spaces[0].store());
    for (space, name) in spaces.iter().zip(names) {
        let image = space.store().to_binary().unwrap();
        assert!(image == store_image, "seed {seed}: {name} store differs");
        let got = answers(space.index(), space.store());
        assert!(got == index, "seed {seed}: {name} index answers differ");
        assert_eq!(space.pending_events(), 0, "seed {seed}: {name}");
    }

    // One further ingest reconciles to the same partition everywhere, and
    // every reconciliation state (now built on each) is current.
    let mut partitions = Vec::new();
    for (space, name) in spaces.iter_mut().zip(names) {
        space.ingest(last.clone()).unwrap();
        space.flush_index();
        assert!(space.recon_state().is_some(), "seed {seed}: {name}");
        assert_recon_current(space, name);
        partitions.push(partition(space.store()));
    }
    assert!(
        partitions.iter().all(|p| *p == partitions[0]),
        "seed {seed}"
    );
    let written = spaces[0].journal().unwrap().next_seq() - base;
    drop(spaces);
    for dir in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
    written
}

#[test]
fn every_publish_path_reaches_the_same_state() {
    let written: u64 = [91u64, 92, 94].into_iter().map(run).sum();
    assert!(written >= 200, "the sequences must write: {written} events");
}

#[test]
fn a_replicated_batch_failing_part_way_publishes_its_prefix() {
    let (built, held, _) = desk(93);
    let dir = scratch("partial");
    let mut follower = built.into_durable(&dir, journal_config()).unwrap();
    // A local ingest builds the reconciliation state; commit it so the
    // follower has no local backlog.
    follower.ingest(held[0].clone()).unwrap();
    follower.commit().unwrap();
    assert!(follower.recon_state().is_some());

    let store = follower.store();
    let person = store.model().class("Person").unwrap();
    let name = store.model().attr("name").unwrap();
    let fresh = ObjectId(store.slot_count() as u64);
    let ghost = ObjectId(1 << 40);
    let batch = [
        StoreEvent::AddObject { class: person },
        StoreEvent::AddAttr {
            object: fresh,
            attr: name,
            value: "Zebulon Quaxley".into(),
        },
        StoreEvent::Merge {
            winner: ghost,
            loser: fresh,
        },
        StoreEvent::AddObject { class: person },
    ];
    let start = follower.journal().unwrap().next_seq();
    let err = follower.apply_replicated(start, &batch).unwrap_err();
    assert!(err.to_string().contains("unknown object"), "{err}");
    assert!(follower.degraded().is_some());
    assert_eq!(follower.store().slot_count(), fresh.index() + 1);
    // The applied prefix reached every subscriber before the degrade.
    let store = follower.store();
    assert!(answers(follower.index(), store) == answers(&SearchIndex::build(store), store));
    assert_eq!(follower.search("zebulon", 5).len(), 1);
    assert_recon_current(&follower, "partial batch");
    assert_eq!(follower.pending_events(), 0);

    // Its journal holds the whole batch, its store only the prefix: no
    // journal reopen reconciles the two, so the follower stays degraded
    // rather than journal later writes behind the batch.
    let head = follower.journal().unwrap().next_seq();
    let err = follower.try_recover_journal().unwrap_err();
    assert!(
        err.to_string().contains("part of a journaled batch"),
        "{err}"
    );
    assert!(follower.degraded().is_some());
    assert_eq!(follower.journal().unwrap().next_seq(), head);
    assert!(follower.ingest(held[1].clone()).is_err());
    drop(follower);
    std::fs::remove_dir_all(&dir).ok();
}
