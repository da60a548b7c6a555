//! Criterion bench for the write-ahead journal: append/commit latency and
//! snapshot + replay recovery throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use semex_journal::{recover, Journal, JournalConfig};
use semex_model::names::{attr, class};
use semex_model::Value;
use semex_store::Store;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("semex-bench-journal-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Journal `n` add-object + add-attr pairs, one commit per pair.
fn populate(store: &mut Store, journal: &mut Journal, n: usize) {
    let person = store.model().class(class::PERSON).unwrap();
    let name = store.model().attr(attr::NAME).unwrap();
    for i in 0..n {
        let p = store.add_object(person);
        store
            .add_attr(p, name, Value::from(format!("person number {i}")))
            .unwrap();
        journal.commit(store).unwrap();
    }
}

/// Commit latency: one object + one attribute per commit. Measured without
/// fsync (logic + serialization + write) and with fsync (true durability).
fn bench_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal_append");
    for (label, fsync) in [("buffered", false), ("fsync", true)] {
        let dir = scratch(&format!("append-{label}"));
        let cfg = JournalConfig {
            fsync,
            ..JournalConfig::default()
        };
        let (mut store, mut journal, _) = recover(&dir, cfg).unwrap();
        let person = store.model().class(class::PERSON).unwrap();
        let name = store.model().attr(attr::NAME).unwrap();
        if fsync {
            group.sample_size(20);
        }
        group.throughput(Throughput::Elements(2));
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let p = store.add_object(person);
                store
                    .add_attr(p, name, Value::from("benchmark person"))
                    .unwrap();
                journal.commit(&mut store).unwrap()
            });
        });
        drop(journal);
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

/// Recovery throughput: reopen a journal whose log holds `2 * n` events.
fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal_replay");
    group.sample_size(10);
    for n in [500usize, 2_000] {
        let dir = scratch(&format!("replay-{n}"));
        let cfg = JournalConfig {
            fsync: false,
            ..JournalConfig::default()
        };
        let (mut store, mut journal, _) = recover(&dir, cfg.clone()).unwrap();
        populate(&mut store, &mut journal, n);
        drop(journal);

        group.throughput(Throughput::Elements(2 * n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let (store, _journal, report) = recover(&dir, cfg.clone()).unwrap();
                assert!(report.damage.is_none());
                assert_eq!(report.events_applied, 2 * n as u64);
                store.object_count()
            });
        });
        std::fs::remove_dir_all(&dir).ok();
    }
    group.finish();
}

/// Recovery from a compacted journal: the same state, but folded into the
/// snapshot — replay cost drops to zero.
fn bench_replay_compacted(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal_replay_compacted");
    group.sample_size(10);
    let n = 2_000usize;
    let dir = scratch("compacted");
    let cfg = JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    };
    let (mut store, mut journal, _) = recover(&dir, cfg.clone()).unwrap();
    populate(&mut store, &mut journal, n);
    journal.compact(&store).unwrap();
    drop(journal);

    group.bench_function(BenchmarkId::from_parameter(n), |b| {
        b.iter(|| {
            let (store, _journal, report) = recover(&dir, cfg.clone()).unwrap();
            assert_eq!(report.events_applied, 0);
            store.object_count()
        });
    });
    std::fs::remove_dir_all(&dir).ok();
    group.finish();
}

/// Plain snapshot save/load of an equivalent store, as the baseline the
/// journal's recovery path is compared against.
fn bench_snapshot_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal_snapshot_baseline");
    group.sample_size(10);
    let n = 2_000usize;
    let dir = scratch("baseline");
    let cfg = JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    };
    let (mut store, mut journal, _) = recover(&dir, cfg).unwrap();
    populate(&mut store, &mut journal, n);
    std::fs::remove_dir_all(&dir).ok();

    let json = store.to_json().unwrap();
    group.bench_function("load_from_json", |b| {
        b.iter(|| Store::from_json(&json).unwrap().object_count());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_append,
    bench_replay,
    bench_replay_compacted,
    bench_snapshot_baseline
);
criterion_main!(benches);
