//! Persistence equivalence: a durable space, recovered from its binary
//! snapshot (and index sidecar) plus journal replay, must answer every
//! query byte-identically to a never-persisted in-memory twin built and
//! written the same way, across commits, reopens, and compactions.

use semex::core::SourceSpec;
use semex::corpus::{generate_personal, CorpusConfig};
use semex::{JournalConfig, Semex, SemexBuilder, SemexConfig};
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    // Tests in this binary run concurrently: a pid-keyed path alone would
    // let two tests clobber each other's directories.
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let p = std::env::temp_dir().join(format!("semex-fmt-equiv-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn config() -> JournalConfig {
    JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    }
}

fn open(dir: &Path) -> semex::DurableSemex {
    Semex::open_durable_with(dir, SemexConfig::default(), config())
        .unwrap()
        .0
}

/// Render the corpus exactly once per process: extraction records absolute
/// paths and file mtimes, so twins must be built from the *same* rendered
/// tree to be byte-identical.
fn corpus_dir() -> &'static Path {
    static DIR: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    DIR.get_or_init(|| {
        let p = std::env::temp_dir().join(format!("semex-fmt-equiv-corpus-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        generate_personal(&CorpusConfig::tiny(2005))
            .write_to(&p)
            .unwrap();
        p
    })
}

fn built() -> Semex {
    SemexBuilder::new()
        .add_directory("demo", corpus_dir())
        .build()
        .unwrap()
}

const QUERIES: [&str; 6] = [
    "garcia",
    "class:Person data",
    "class:Publication integration",
    "semex personal information",
    "class:Message meeting",
    "nothingmatchesthis",
];

/// Full-precision rendering: hits must be *byte*-identical, scores included.
fn results(semex: &Semex, query: &str) -> Vec<String> {
    semex
        .search(query, 10)
        .into_iter()
        .map(|h| format!("{}|{}|{}|{}", h.object.0, h.label, h.class, h.score))
        .collect()
}

fn assert_equiv(a: &Semex, b: &Semex, at: &str) {
    for q in QUERIES {
        assert_eq!(results(a, q), results(b, q), "{at}: query {q:?}");
    }
    assert_eq!(
        a.store().to_json().unwrap(),
        b.store().to_json().unwrap(),
        "{at}: store state"
    );
}

fn sidecar_files(dir: &Path) -> Vec<String> {
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().to_str().map(str::to_owned))
        .filter(|n| n.starts_with("index-") && n.ends_with(".idx"))
        .collect();
    v.sort();
    v
}

#[test]
fn durable_space_matches_its_in_memory_twin() {
    let dir = scratch("twin");
    // The oracle: the same build, never persisted.
    let mut oracle = built();
    let d = built().into_durable(&dir, config()).unwrap();
    assert_eq!(d.journal().unwrap().epoch(), 0);
    assert_equiv(&d, &oracle, "after init");
    assert_eq!(
        sidecar_files(&dir),
        vec!["index-0000000000.idx".to_string()],
        "init writes the index sidecar"
    );
    drop(d);

    // Cold reopen: the snapshot is decoded and the sidecar restored.
    let mut d = open(&dir);
    assert_equiv(&d, &oracle, "after cold reopen");

    // Identical writes on both, committed on the durable one.
    let vcf = "BEGIN:VCARD\nFN:Nova Garcia\nEMAIL:nova@example.edu\nEND:VCARD\n";
    let late = || SourceSpec::Vcard {
        name: "late-contacts".into(),
        content: vcf.into(),
    };
    d.ingest(late()).unwrap();
    d.commit().unwrap();
    oracle.ingest(late()).unwrap();
    assert_equiv(&d, &oracle, "after identical writes");
    drop(d);

    // Reopen again: the sidecar is now *behind* the journal tail, so the
    // restore must fold the replayed events in — still identical.
    let mut d = open(&dir);
    assert_equiv(&d, &oracle, "after reopen with journal tail");

    // Compaction advances the epoch and re-stamps the sidecar.
    let c = d.compact().unwrap();
    assert_eq!(c.epoch, 1);
    assert_eq!(d.journal().unwrap().epoch(), 1);
    assert_equiv(&d, &oracle, "after compaction");
    assert_eq!(
        sidecar_files(&dir),
        vec![format!("index-{:010}.idx", c.epoch)],
        "compaction replaces the sidecar"
    );
    drop(d);

    assert_equiv(&open(&dir), &oracle, "after post-compaction reopen");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sidecar_restore_equals_index_rebuild() {
    let dir = scratch("restore-vs-rebuild");
    drop(built().into_durable(&dir, config()).unwrap());
    let restored = open(&dir);

    // Without its sidecar the open rebuilds the index from the store: the
    // restored index must be indistinguishable from the rebuilt one. (The
    // sidecar is only advisory.)
    let side = dir.join("index-0000000000.idx");
    assert!(side.exists());
    std::fs::remove_file(&side).unwrap();
    let rebuilt = open(&dir);
    assert_equiv(&restored, &rebuilt, "sidecar restore vs rebuild");
    drop(rebuilt);

    // The rebuilding open re-wrote the sidecar; a corrupted one must never
    // poison the open either.
    let mut bytes = std::fs::read(&side).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&side, &bytes).unwrap();
    assert_equiv(&restored, &open(&dir), "corrupt sidecar falls back");

    std::fs::remove_dir_all(&dir).ok();
}
