//! Crash-recovery fault injection: torn writes, flipped bytes, duplicated
//! segments. The contract under test: after any damage, `recover`
//! recovers every event up to the damage point, repairs the log, and the
//! recovered store is identical — objects, attributes, triples, merges,
//! sources — to the store that produced those events.

use semex_journal::{recover, DamageKind, JournalConfig};
use semex_model::names::{assoc, attr, class};
use semex_model::Value;
use semex_store::{ObjectId, SourceInfo, SourceKind, Store, StoreEvent};
use std::fs;
use std::path::{Path, PathBuf};

/// A fresh, empty scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("semex-journal-{tag}-{}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    dir
}

/// No-fsync config (these tests exercise logic, not the disk).
fn config() -> JournalConfig {
    JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    }
}

/// Run the canonical mutation scenario against a store. Deterministic, so
/// running it on a plain in-memory store yields the exact state a journaled
/// run must recover to.
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
    st.add_attr(paper, title, Value::from("On Journals"))
        .unwrap();
    st.add_triple(paper, authored, smith, src).unwrap();
    st.merge(ann, smith).unwrap();
}

/// The scenario's end state on a plain in-memory store.
fn expected_after_scenario() -> Store {
    let mut st = Store::with_builtin_model();
    scenario(&mut st);
    st
}

/// One extra, easily-identified event appended after the scenario.
fn extra_event(st: &mut Store) {
    let email = st.model().attr(attr::EMAIL).unwrap();
    st.add_attr(ObjectId(0), email, Value::from("ann@example.org"))
        .unwrap();
}

/// Every slot, triple, source and merge alias must coincide.
fn assert_same_store(recovered: &Store, expected: &Store) {
    assert_eq!(recovered.slot_count(), expected.slot_count(), "slot count");
    assert_eq!(
        recovered.object_count(),
        expected.object_count(),
        "live objects"
    );
    assert_eq!(recovered.triples_raw(), expected.triples_raw(), "triples");
    for i in 0..expected.slot_count() {
        let id = ObjectId(i as u64);
        assert_eq!(
            recovered.object_raw(id),
            expected.object_raw(id),
            "slot {i}"
        );
        assert_eq!(
            recovered.resolve(id),
            expected.resolve(id),
            "alias of slot {i}"
        );
    }
    let rs: Vec<_> = recovered
        .sources()
        .map(|(id, info)| (id, info.clone()))
        .collect();
    let es: Vec<_> = expected
        .sources()
        .map(|(id, info)| (id, info.clone()))
        .collect();
    assert_eq!(rs, es, "sources");
}

/// The single segment file of a fresh epoch-0 journal.
fn only_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .collect();
    segments.sort();
    assert_eq!(segments.len(), 1, "expected one segment in {segments:?}");
    segments.pop().unwrap()
}

#[test]
fn fresh_open_commit_reopen_round_trips() {
    let dir = scratch("roundtrip");
    let (mut store, mut journal, report) = recover(&dir, config()).unwrap();
    assert!(report.initialized);
    assert!(report.damage.is_none());

    scenario(&mut store);
    let committed = journal.commit(&mut store).unwrap();
    assert!(committed >= 9, "scenario should journal at least 9 events");
    assert_eq!(store.event_head() - journal.next_seq(), 0);
    let live = store.clone();
    drop(journal);

    let (reopened, _, report) = recover(&dir, config()).unwrap();
    assert!(!report.initialized);
    assert!(report.damage.is_none(), "{report:?}");
    assert_eq!(report.events_applied, committed as u64);
    assert_same_store(&reopened, &live);
    assert_same_store(&reopened, &expected_after_scenario());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn uncommitted_events_are_lost_committed_ones_survive() {
    let dir = scratch("uncommitted");
    let (mut store, mut journal, _) = recover(&dir, config()).unwrap();
    scenario(&mut store);
    journal.commit(&mut store).unwrap();
    // Mutate again but crash (drop) without committing.
    extra_event(&mut store);
    assert!(store.event_head() - journal.next_seq() > 0);
    drop(journal);

    let (reopened, _, report) = recover(&dir, config()).unwrap();
    assert!(report.damage.is_none());
    assert_same_store(&reopened, &expected_after_scenario());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sealed_batch_that_fails_to_apply_is_dropped_whole() {
    let dir = scratch("apply");
    let (mut store, mut journal, _) = recover(&dir, config()).unwrap();
    scenario(&mut store);
    journal.commit(&mut store).unwrap();
    let sealed = journal.next_seq();
    // A batch whose second event names an object nobody allocated: the
    // journal seals it, but no store can apply it.
    let person = store.model().class(class::PERSON).unwrap();
    let fresh = ObjectId(store.slot_count() as u64);
    let ghost = ObjectId(1 << 40);
    journal
        .append_commit(&[
            StoreEvent::AddObject { class: person },
            StoreEvent::Merge {
                winner: ghost,
                loser: fresh,
            },
        ])
        .unwrap();
    drop((store, journal));

    // The whole batch is gone: from the store, the sequence and the disk.
    let (mut store, mut journal, report) = recover(&dir, config()).unwrap();
    assert_eq!(report.damage.map(|d| d.kind), Some(DamageKind::Apply));
    assert_eq!(report.events_applied, sealed);
    assert_same_store(&store, &expected_after_scenario());
    assert_eq!(journal.next_seq(), sealed);
    assert_eq!(store.event_head(), sealed);

    // A write committed after that survives the next reopen, and the
    // sequence counts exactly the events on disk.
    extra_event(&mut store);
    assert_eq!(journal.commit(&mut store).unwrap(), 1);
    let live = store.clone();
    drop((store, journal));
    let (reopened, journal, report) = recover(&dir, config()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_eq!(report.events_applied, sealed + 1);
    assert_eq!(journal.next_seq(), report.base_seq + report.events_applied);
    assert_same_store(&reopened, &live);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_tail_recovers_everything_before_the_tear() {
    let dir = scratch("torn");
    let (mut store, mut journal, _) = recover(&dir, config()).unwrap();
    scenario(&mut store);
    journal.commit(&mut store).unwrap();
    let segment = only_segment(&dir);
    let len_before = fs::metadata(&segment).unwrap().len();
    extra_event(&mut store);
    journal.commit(&mut store).unwrap();
    drop(journal);

    // Tear the last record: cut the file mid-way through it, as a crash
    // during append would.
    let len_after = fs::metadata(&segment).unwrap().len();
    assert!(len_after > len_before);
    let bytes = fs::read(&segment).unwrap();
    fs::write(&segment, &bytes[..(len_before + 4) as usize]).unwrap();

    let (reopened, _, report) = recover(&dir, config()).unwrap();
    let damage = report.damage.expect("torn tail must be reported");
    assert_eq!(damage.kind, DamageKind::Torn);
    assert_eq!(
        damage.offset, len_before,
        "damage at the last record's start"
    );
    assert_same_store(&reopened, &expected_after_scenario());
    drop(reopened);

    // Recovery repaired the log: a second open is clean and identical.
    let (again, _, report) = recover(&dir, config()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_same_store(&again, &expected_after_scenario());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_byte_recovers_everything_before_the_corruption() {
    let dir = scratch("flipped");
    let (mut store, mut journal, _) = recover(&dir, config()).unwrap();
    scenario(&mut store);
    journal.commit(&mut store).unwrap();
    let segment = only_segment(&dir);
    let len_before = fs::metadata(&segment).unwrap().len() as usize;
    extra_event(&mut store);
    journal.commit(&mut store).unwrap();
    drop(journal);

    // Flip one payload byte inside the last record.
    let mut bytes = fs::read(&segment).unwrap();
    let target = len_before + semex_journal::record::HEADER_LEN + 2;
    assert!(target < bytes.len());
    bytes[target] ^= 0x40;
    fs::write(&segment, &bytes).unwrap();

    let (reopened, _, report) = recover(&dir, config()).unwrap();
    let damage = report.damage.expect("corruption must be reported");
    assert_eq!(damage.kind, DamageKind::Corrupt);
    assert_eq!(damage.offset, len_before as u64);
    assert_same_store(&reopened, &expected_after_scenario());
    drop(reopened);

    let (again, _, report) = recover(&dir, config()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_same_store(&again, &expected_after_scenario());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corruption_in_the_middle_keeps_only_the_prefix() {
    let dir = scratch("midflip");
    let (mut store, mut journal, _) = recover(&dir, config()).unwrap();
    scenario(&mut store);
    journal.commit(&mut store).unwrap();
    drop(journal);

    // Flip a byte inside the FIRST record: everything after it is lost,
    // and recovery falls back to the snapshot (an empty store).
    let segment = only_segment(&dir);
    let mut bytes = fs::read(&segment).unwrap();
    let target = semex_journal::segment::SEGMENT_HEADER_LEN + semex_journal::record::HEADER_LEN + 1;
    bytes[target] ^= 0x01;
    fs::write(&segment, &bytes).unwrap();

    let (mut reopened, mut journal, report) = recover(&dir, config()).unwrap();
    let damage = report.damage.expect("corruption must be reported");
    assert_eq!(damage.kind, DamageKind::Corrupt);
    assert_eq!(report.events_applied, 0);
    assert_same_store(&reopened, &Store::with_builtin_model());

    // The log still works after repair: journal the scenario again.
    scenario(&mut reopened);
    journal.commit(&mut reopened).unwrap();
    drop(journal);
    let (again, _, report) = recover(&dir, config()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_same_store(&again, &expected_after_scenario());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicated_segment_stops_replay_at_the_boundary() {
    let dir = scratch("dupseg");
    // Tiny segments so the scenario spans several files.
    let cfg = JournalConfig {
        segment_max_bytes: 160,
        fsync: false,
        ..JournalConfig::default()
    };
    let (mut store, mut journal, _) = recover(&dir, cfg.clone()).unwrap();
    scenario(&mut store);
    journal.commit(&mut store).unwrap();
    drop(journal);

    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-"))
        })
        .collect();
    segments.sort();
    assert!(
        segments.len() >= 2,
        "scenario should span multiple segments"
    );

    // Backup tooling gone wrong: the first segment reappears under the next
    // free index. Its start_seq does not continue the log.
    let next_index = segments.len() as u64;
    let duplicate = dir.join(semex_journal::segment::segment_file_name(0, next_index));
    fs::copy(&segments[0], &duplicate).unwrap();

    let (reopened, _, report) = recover(&dir, cfg.clone()).unwrap();
    let damage = report.damage.expect("duplicate segment must be reported");
    assert_eq!(damage.kind, DamageKind::SequenceMismatch);
    assert_eq!(damage.segment, duplicate);
    // Every genuine event was replayed; nothing was applied twice.
    assert_same_store(&reopened, &expected_after_scenario());
    // The unreachable duplicate was removed.
    assert!(!duplicate.exists());
    drop(reopened);

    let (again, _, report) = recover(&dir, cfg).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_same_store(&again, &expected_after_scenario());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_folds_journal_and_state_survives() {
    let dir = scratch("compact");
    let (mut store, mut journal, _) = recover(&dir, config()).unwrap();
    scenario(&mut store);
    journal.commit(&mut store).unwrap();

    let report = journal.compact(&store).unwrap();
    assert_eq!(report.epoch, 1);
    assert!(report.removed_files >= 2, "old snapshot + segment removed");
    assert_eq!(journal.epoch(), 1);
    // Old-epoch files are gone; the new snapshot exists.
    assert!(!dir
        .join(semex_journal::segment::snapshot_file_name(0))
        .exists());
    assert!(dir
        .join(semex_journal::segment::snapshot_file_name(1))
        .exists());

    // Keep writing after compaction.
    extra_event(&mut store);
    journal.commit(&mut store).unwrap();
    let live = store.clone();
    drop(journal);

    let (reopened, _, report) = recover(&dir, config()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_eq!(report.epoch, 1);
    assert_eq!(
        report.events_applied, 1,
        "only the post-compaction event replays"
    );
    assert_same_store(&reopened, &live);
    fs::remove_dir_all(&dir).ok();
}

/// A damaged snapshot with no other to fall back to stays on disk: every
/// open refuses the directory, and none initializes an empty journal in
/// its place.
#[test]
fn a_lone_damaged_snapshot_is_kept_and_every_open_refuses() {
    let dir = scratch("lone-damaged");
    let (mut store, mut journal, _) = recover(&dir, config()).unwrap();
    scenario(&mut store);
    journal.commit(&mut store).unwrap();
    journal.compact(&store).unwrap();
    drop(journal);
    let snapshot = dir.join(semex_journal::segment::snapshot_file_name(1));
    let mut bytes = fs::read(&snapshot).unwrap();
    *bytes.last_mut().unwrap() ^= 0xFF;
    fs::write(&snapshot, &bytes).unwrap();

    for open in ["first", "second"] {
        let err = recover(&dir, config()).expect_err("a damaged snapshot");
        assert!(
            err.to_string().contains("no usable snapshot"),
            "{open} open: {err}"
        );
        assert_eq!(
            fs::read(&snapshot).unwrap(),
            bytes,
            "{open} open removed the snapshot"
        );
    }
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn segment_rotation_produces_multiple_segments_and_replays_in_order() {
    let dir = scratch("rotate");
    let cfg = JournalConfig {
        segment_max_bytes: 200,
        fsync: false,
        ..JournalConfig::default()
    };
    let (mut store, mut journal, _) = recover(&dir, cfg.clone()).unwrap();
    let person = store.model().class(class::PERSON).unwrap();
    let name = store.model().attr(attr::NAME).unwrap();
    for i in 0..40 {
        let p = store.add_object(person);
        store
            .add_attr(p, name, Value::from(format!("person {i}")))
            .unwrap();
        journal.commit(&mut store).unwrap();
    }
    let count = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| semex_journal::segment::parse_segment_name(e.ok()?.file_name().to_str()?))
        .filter(|&(epoch, _)| epoch == journal.epoch())
        .count();
    assert!(
        count >= 2,
        "rotation should have produced several segments, got {count}"
    );
    let live = store.clone();
    drop(journal);

    let (reopened, _, report) = recover(&dir, cfg).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_eq!(report.segments_replayed, count);
    assert_eq!(report.events_applied, 80);
    assert_same_store(&reopened, &live);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn model_extension_survives_recovery() {
    let dir = scratch("model");
    let (mut store, mut journal, _) = recover(&dir, config()).unwrap();
    let st = &mut store;
    let person = st.model().class(class::PERSON).unwrap();
    let badge = st
        .model_mut()
        .add_class(semex_model::ClassDef::new("Badge"))
        .unwrap();
    let wears = st
        .model_mut()
        .add_assoc(semex_model::AssocDef::new("Wears", person, badge, "WornBy"))
        .unwrap();
    st.sync_model();
    let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
    let p = st.add_object(person);
    let b = st.add_object(badge);
    st.add_triple(p, wears, b, src).unwrap();
    journal.commit(&mut store).unwrap();
    drop(journal);

    let (mut reopened, mut journal, report) = recover(&dir, config()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_eq!(reopened.model().class("Badge"), Some(badge));
    assert_eq!(reopened.neighbors(p, wears), &[b]);

    // The replayed model sync counts in the store's log like any event, so
    // a write after recovery is journaled, not skipped.
    let second = reopened.add_object(badge);
    assert_eq!(reopened.event_head() - journal.next_seq(), 1);
    assert_eq!(journal.commit(&mut reopened).unwrap(), 1);
    assert_eq!(reopened.event_head(), journal.next_seq());
    drop(journal);
    let (again, _, report) = recover(&dir, config()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_eq!(again.object_raw(second).map(|o| o.class), Some(badge));
    fs::remove_dir_all(&dir).ok();
}
