//! Durability integration tests over the public `semex` API:
//! `save_compacted` → `load` query equivalence, and the journal-backed
//! `open_durable` crash-recovery path end to end.

use semex::query::summary::derived;
use semex::{JournalConfig, Semex, SemexBuilder, SemexConfig};
use std::path::PathBuf;

const BIB: &str = "@inproceedings{d5, title={Reference Reconciliation in Complex Spaces}, author={Dong, Xin and Halevy, Alon}, booktitle={SIGMOD}, year=2005}\n@inproceedings{p2, title={Personal Information Management with SEMEX}, author={Cai, Yuhan and Dong, Xin and Halevy, Alon and Liu, Jing and Madhavan, Jayant}, booktitle={SIGMOD}, year=2005}";
const MBOX: &str = "From: Xin Dong <luna@cs.example.edu>\nTo: Alon Halevy <alon@cs.example.edu>\nSubject: demo plan for the sigmod session\nMessage-ID: <m1@x>\n\nSee you Friday.\n";
const VCF: &str =
    "BEGIN:VCARD\nFN:Xin Dong\nEMAIL:luna@cs.example.edu\nORG:Evergreen University\nEND:VCARD\n";

fn built() -> Semex {
    SemexBuilder::new()
        .add_bibtex("library", BIB)
        .add_mbox("inbox", MBOX)
        .add_vcards("contacts", VCF)
        .build()
        .unwrap()
}

fn scratch(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("semex-durability-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::remove_file(&p).ok();
    p
}

/// `(label, class)` pairs for a query — ids differ across compaction, so
/// equivalence is judged on rendered results.
fn results(semex: &Semex, query: &str) -> Vec<(String, String)> {
    semex
        .search(query, 10)
        .into_iter()
        .map(|h| (h.label, h.class))
        .collect()
}

/// Sorted outgoing/incoming link renderings of a query's top hit.
fn browse_links(semex: &Semex, query: &str) -> Vec<String> {
    let hit = semex
        .search(query, 1)
        .into_iter()
        .next()
        .expect("a top hit");
    let mut links: Vec<String> = semex
        .view(hit.object)
        .links
        .iter()
        .map(|l| format!("{} -> {}", l.label, l.target_label))
        .collect();
    links.sort();
    links
}

#[test]
fn save_compacted_then_load_answers_queries_identically() {
    let semex = built();
    let path = scratch("compacted");
    semex.save_compacted(&path).unwrap();
    let restored = Semex::load(&path, SemexConfig::default()).unwrap();

    assert!(restored.report().restored);
    assert_eq!(
        restored.store().object_count(),
        semex.store().object_count()
    );
    assert_eq!(
        restored.store().alias_count(),
        0,
        "compaction drops alias slots"
    );

    for query in [
        "reconciliation",
        "semex",
        "class:Person dong",
        "class:Person halevy",
        "class:Publication personal",
        "class:Message demo",
        "evergreen",
    ] {
        assert_eq!(
            results(&restored, query),
            results(&semex, query),
            "query {query:?}"
        );
    }
    for query in ["class:Person dong", "class:Publication reconciliation"] {
        assert_eq!(
            browse_links(&restored, query),
            browse_links(&semex, query),
            "browse around top hit of {query:?}"
        );
    }
    // Derived associations survive too: Dong's co-authors read the same.
    let dong = restored.search("class:Person dong", 1)[0].object;
    let mut coauthors: Vec<String> = derived(restored.store(), dong, "CoAuthor")
        .unwrap()
        .into_iter()
        .map(|o| restored.store().label(o))
        .collect();
    coauthors.sort();
    let dong_live = semex.search("class:Person dong", 1)[0].object;
    let mut coauthors_live: Vec<String> = derived(semex.store(), dong_live, "CoAuthor")
        .unwrap()
        .into_iter()
        .map(|o| semex.store().label(o))
        .collect();
    coauthors_live.sort();
    assert_eq!(coauthors, coauthors_live);
    std::fs::remove_file(&path).ok();
}

#[test]
fn open_durable_recovers_committed_work_and_drops_uncommitted() {
    let dir = scratch("journal");
    let cfg = JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    };

    // Session 1: start an empty durable space, ingest the library and
    // commit; then ingest the inbox but "crash" before committing.
    let (mut durable, report) =
        Semex::open_durable_with(&dir, SemexConfig::default(), cfg.clone()).unwrap();
    assert!(report.initialized);
    durable
        .ingest(semex::core::SourceSpec::Bibtex {
            name: "library".into(),
            content: BIB.into(),
        })
        .unwrap();
    durable.commit().unwrap();
    let committed_results = results(&durable, "class:Publication reconciliation");
    assert_eq!(committed_results.len(), 1);
    durable
        .ingest(semex::core::SourceSpec::Mbox {
            name: "inbox".into(),
            content: MBOX.into(),
        })
        .unwrap();
    assert!(durable.pending_events() > 0);
    assert!(!results(&durable, "class:Message demo").is_empty());
    drop(durable); // crash: the inbox ingest was never committed

    // Session 2: recovery yields exactly the committed state.
    let (reopened, report) =
        Semex::open_durable_with(&dir, SemexConfig::default(), cfg.clone()).unwrap();
    assert!(!report.initialized);
    assert!(report.damage.is_none(), "{report:?}");
    assert_eq!(
        results(&reopened, "class:Publication reconciliation"),
        committed_results
    );
    assert!(
        results(&reopened, "class:Message demo").is_empty(),
        "uncommitted ingest must not survive the crash"
    );

    // Re-ingest the inbox, commit, compact, and reopen once more.
    let mut reopened = reopened;
    reopened
        .ingest(semex::core::SourceSpec::Mbox {
            name: "inbox".into(),
            content: MBOX.into(),
        })
        .unwrap();
    reopened.commit().unwrap();
    let compaction = reopened.compact().unwrap();
    assert_eq!(compaction.epoch, 1);
    let full_results = results(&reopened, "class:Message demo");
    assert_eq!(full_results.len(), 1);
    drop(reopened);

    let (last, report) = Semex::open_durable_with(&dir, SemexConfig::default(), cfg).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    assert_eq!(report.epoch, 1);
    assert_eq!(report.events_applied, 0, "compaction folded the log away");
    assert_eq!(results(&last, "class:Message demo"), full_results);
    std::fs::remove_dir_all(&dir).ok();
}
