//! Criterion bench for epoch snapshots: encode/decode latency of the
//! binary on-disk image, and full cold-open latency (recover + index
//! sidecar restore). The numbers back E15's cold-start claims.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use semex_core::{JournalConfig, Semex, SemexBuilder, SemexConfig};
use semex_corpus::{generate_personal, CorpusConfig};
use semex_model::names::{attr, class};
use semex_model::Value;
use semex_store::Store;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("semex-bench-snapshot-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A store with `n` named people — snapshot-codec work scales with slots,
/// attributes, and arena bytes, which this populates directly.
fn synthetic_store(n: usize) -> Store {
    let mut st = Store::with_builtin_model();
    let person = st.model().class(class::PERSON).unwrap();
    let name = st.model().attr(attr::NAME).unwrap();
    let email = st.model().attr(attr::EMAIL).unwrap();
    for i in 0..n {
        let p = st.add_object(person);
        st.add_attr(p, name, Value::from(format!("person number {i}")))
            .unwrap();
        st.add_attr(p, email, Value::from(format!("p{i}@example.edu")))
            .unwrap();
    }
    st
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_encode");
    for n in [1_000usize, 5_000] {
        let st = synthetic_store(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("binary", n), &st, |b, st| {
            b.iter(|| st.to_binary().unwrap().len())
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_decode");
    for n in [1_000usize, 5_000] {
        let st = synthetic_store(n);
        let bin = st.to_binary().unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("binary", n), &bin, |b, bin| {
            b.iter(|| Store::from_binary(bin).unwrap().slot_count())
        });
    }
    group.finish();
}

/// Cold open end to end: recover the store from its epoch snapshot and
/// restore the keyword index from its sidecar. This is the
/// tenant-reactivation latency.
fn bench_cold_open(c: &mut Criterion) {
    let mut group = c.benchmark_group("cold_open");
    group.sample_size(10);

    let corpus = generate_personal(&CorpusConfig::tiny(2005));
    let corpus_dir = scratch("corpus");
    corpus.write_to(&corpus_dir).unwrap();
    let semex = SemexBuilder::new()
        .add_directory("demo", &corpus_dir)
        .build()
        .unwrap();
    std::fs::remove_dir_all(&corpus_dir).ok();

    let cfg = JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    };
    let dir = scratch("open");
    semex.into_durable(&dir, cfg.clone()).unwrap();
    group.bench_function("binary", |b| {
        b.iter(|| {
            let (d, _) =
                Semex::open_durable_with(&dir, SemexConfig::default(), cfg.clone()).unwrap();
            d.store().object_count()
        })
    });
    std::fs::remove_dir_all(&dir).ok();
    group.finish();
}

criterion_group!(benches, bench_encode, bench_decode, bench_cold_open);
criterion_main!(benches);
