//! Integration tests for binary-format snapshots: round trips through
//! commit/compact/reopen, migration from legacy JSON spaces, and epoch
//! fallback when a binary snapshot is damaged.

mod common;

use semex_journal::{recover, segment, JournalConfig};
use semex_model::names::{assoc, attr, class};
use semex_model::Value;
use semex_store::{ObjectId, SourceInfo, SourceKind, Store};
use std::fs;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("semex-binfmt-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

fn config() -> JournalConfig {
    JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    }
}

/// Deterministic mutation scenario (mirrors the recovery suite).
fn scenario(st: &mut Store) {
    let person = st.model().class(class::PERSON).unwrap();
    let publication = st.model().class(class::PUBLICATION).unwrap();
    let authored = st.model().assoc(assoc::AUTHORED_BY).unwrap();
    let name = st.model().attr(attr::NAME).unwrap();
    let title = st.model().attr(attr::TITLE).unwrap();
    let src = st.register_source(SourceInfo::new("inbox", SourceKind::Synthetic));
    let ann = st.add_object(person);
    let smith = st.add_object(person);
    st.add_attr(ann, name, Value::from("Ann Smith")).unwrap();
    st.add_attr(smith, name, Value::from("A. Smith")).unwrap();
    st.add_source_to(ann, src);
    let paper = st.add_object(publication);
    st.add_attr(paper, title, Value::from("On Binary Snapshots"))
        .unwrap();
    st.add_triple(paper, authored, smith, src).unwrap();
    st.merge(ann, smith).unwrap();
}

fn assert_same_store(recovered: &Store, expected: &Store) {
    assert_eq!(recovered.slot_count(), expected.slot_count(), "slot count");
    assert_eq!(recovered.triples_raw(), expected.triples_raw(), "triples");
    for i in 0..expected.slot_count() {
        let id = ObjectId(i as u64);
        assert_eq!(
            recovered.object_raw(id),
            expected.object_raw(id),
            "slot {i}"
        );
        assert_eq!(recovered.resolve(id), expected.resolve(id), "alias {i}");
    }
}

/// Names of all files in a journal directory.
fn file_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str().map(str::to_owned))
        .collect();
    names.sort();
    names
}

/// Names of all snapshot files in a journal directory.
fn snapshot_names(dir: &Path) -> Vec<String> {
    let mut names = file_names(dir);
    names.retain(|n| n.starts_with("snapshot-"));
    names
}

#[test]
fn binary_space_round_trips_through_commit_compact_reopen() {
    let dir = scratch("roundtrip");
    let (mut store, mut journal, report) = recover(&dir, config()).unwrap();
    assert!(report.initialized);
    // The fresh epoch-0 snapshot is already binary.
    assert_eq!(snapshot_names(&dir), vec![segment::snapshot_file_name(0)]);

    scenario(&mut store);
    journal.commit(&mut store).unwrap();
    let live = store.clone();
    drop(journal);

    // Reopen: recover from binary snapshot + WAL replay.
    let (store, mut journal, report) = recover(&dir, config()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    assert_same_store(&store, &live);

    // Compact folds everything into a binary epoch-1 snapshot.
    let c = journal.compact(&store).unwrap();
    assert_eq!(c.epoch, 1);
    assert_eq!(snapshot_names(&dir), vec![segment::snapshot_file_name(1)]);
    drop(journal);

    let (store, _, report) = recover(&dir, config()).unwrap();
    assert_eq!(report.epoch, 1);
    assert!(report.damage.is_none(), "{report:?}");
    assert_same_store(&store, &live);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn json_space_migrates_to_binary_at_compaction() {
    let dir = scratch("migrate");
    // A legacy space: its epoch-0 snapshot in the old JSON encoding.
    let mut original = Store::with_builtin_model();
    scenario(&mut original);
    common::write_legacy_json_space(&dir, &original);

    // The JSON snapshot is still read, and writes land in its epoch's log.
    let (mut store, mut journal, report) = recover(&dir, config()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_eq!(report.epoch, 0);
    assert_same_store(&store, &original);
    let person = store.model().class(class::PERSON).unwrap();
    store.add_object(person);
    journal.commit(&mut store).unwrap();
    let live = store.clone();
    drop(journal);

    let (store, mut journal, report) = recover(&dir, config()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_eq!(report.events_applied, 1);
    assert_same_store(&store, &live);

    // The next compaction rewrites the space in binary: nothing but the
    // binary snapshot (and any index sidecar) is left.
    let c = journal.compact(&store).unwrap();
    assert_eq!(c.epoch, 1);
    drop(journal);
    let names = file_names(&dir);
    assert!(
        names
            .iter()
            .all(|n| n.ends_with(".bin") || n.ends_with(".idx")),
        "{names:?}"
    );
    assert_eq!(snapshot_names(&dir), vec![segment::snapshot_file_name(1)]);

    let (store, _, report) = recover(&dir, config()).unwrap();
    assert_eq!(report.epoch, 1);
    assert!(report.damage.is_none(), "{report:?}");
    assert_same_store(&store, &live);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_binary_snapshot_falls_back_to_previous_epoch() {
    let dir = scratch("fallback");
    let (mut store, mut journal, _) = recover(&dir, config()).unwrap();
    scenario(&mut store);
    journal.commit(&mut store).unwrap();
    let live = store.clone();
    drop(journal);

    // Save the epoch-0 files, compact to epoch 1, then put the epoch-0
    // files back: exactly the directory a crash between "write new
    // snapshot" and "delete old epoch" leaves behind.
    let saved: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| {
            let name = e.file_name().to_str().unwrap().to_owned();
            (name.clone(), fs::read(dir.join(&name)).unwrap())
        })
        .collect();
    let (store, mut journal, _) = recover(&dir, config()).unwrap();
    journal.compact(&store).unwrap();
    drop(journal);
    for (name, bytes) in &saved {
        if !dir.join(name).exists() {
            fs::write(dir.join(name), bytes).unwrap();
        }
    }

    // Corrupt the epoch-1 binary snapshot.
    let snap1 = dir.join(segment::snapshot_file_name(1));
    let mut bytes = fs::read(&snap1).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&snap1, &bytes).unwrap();

    // Recovery reports the damage as a warning, falls back to epoch 0, and
    // still reaches the full committed state by replaying epoch 0's WAL.
    let (store, _, report) = recover(&dir, config()).unwrap();
    assert_eq!(report.epoch, 0, "fell back to the previous epoch");
    assert!(
        report.warnings.iter().any(|w| w.contains("snapshot")),
        "damage surfaced as a warning: {:?}",
        report.warnings
    );
    assert!(!snap1.exists(), "damaged snapshot removed");
    assert_same_store(&store, &live);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_sole_binary_snapshot_is_a_typed_error() {
    let dir = scratch("sole");
    let (mut store, mut journal, _) = recover(&dir, config()).unwrap();
    scenario(&mut store);
    journal.commit(&mut store).unwrap();
    journal.compact(&store).unwrap();
    drop(journal);

    let snap = dir.join(segment::snapshot_file_name(1));
    let mut bytes = fs::read(&snap).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    fs::write(&snap, &bytes).unwrap();

    let err = recover(&dir, config()).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("no usable snapshot"), "typed error: {msg}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_binary_snapshot_falls_back_too() {
    let dir = scratch("truncated");
    let (mut store, mut journal, _) = recover(&dir, config()).unwrap();
    scenario(&mut store);
    journal.commit(&mut store).unwrap();
    let live = store.clone();
    drop(journal);

    let saved: Vec<(String, Vec<u8>)> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| {
            let name = e.file_name().to_str().unwrap().to_owned();
            (name.clone(), fs::read(dir.join(&name)).unwrap())
        })
        .collect();
    let (store, mut journal, _) = recover(&dir, config()).unwrap();
    journal.compact(&store).unwrap();
    drop(journal);
    for (name, bytes) in &saved {
        if !dir.join(name).exists() {
            fs::write(dir.join(name), bytes).unwrap();
        }
    }

    // Tear the epoch-1 snapshot in half (torn write at compaction).
    let snap1 = dir.join(segment::snapshot_file_name(1));
    let bytes = fs::read(&snap1).unwrap();
    fs::write(&snap1, &bytes[..bytes.len() / 2]).unwrap();

    let (store, _, report) = recover(&dir, config()).unwrap();
    assert_eq!(report.epoch, 0);
    assert!(!report.warnings.is_empty());
    assert_same_store(&store, &live);
    fs::remove_dir_all(&dir).ok();
}
