//! End-to-end pipeline over a corpus written to disk: the exact production
//! path a desktop deployment takes (directory walk → extraction →
//! reconciliation → index), plus determinism and snapshot persistence.

mod common;

use semex::corpus::{generate_personal, CorpusConfig};
use semex::query::summary::shortest_path;
use semex::{Semex, SemexBuilder, SemexConfig};

fn build_from_disk(seed: u64, tag: &str) -> (Semex, std::path::PathBuf) {
    let corpus = generate_personal(&CorpusConfig::tiny(seed));
    let dir = std::env::temp_dir().join(format!("semex-e2e-{tag}-{}", std::process::id()));
    corpus.write_to(&dir).unwrap();
    let semex = SemexBuilder::new()
        .add_directory("home", &dir)
        .build()
        .unwrap();
    (semex, dir)
}

#[test]
fn directory_pipeline_builds_everything() {
    let (semex, dir) = build_from_disk(21, "build");
    let stats = semex.stats();
    assert!(stats.class("Person") > 0);
    assert!(stats.class("Publication") > 0);
    assert!(stats.class("Message") > 0);
    assert!(stats.class("File") > 0);
    assert!(stats.class("Folder") > 0);
    assert!(stats.aliases > 0, "reconciliation ran and merged something");
    assert!(stats.assoc("Sender") > 0);
    assert!(stats.assoc("AuthoredBy") > 0);
    assert!(stats.assoc("InFolder") > 0);
    let report = semex.report();
    assert!(report.recon.is_some());
    assert!(report.indexed > 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_finds_known_people_end_to_end() {
    let corpus = generate_personal(&CorpusConfig::tiny(22));
    let dir = std::env::temp_dir().join(format!("semex-e2e-search-{}", std::process::id()));
    corpus.write_to(&dir).unwrap();
    let semex = SemexBuilder::new()
        .add_directory("home", &dir)
        .build()
        .unwrap();

    let mut found = 0;
    let total = corpus.world.people.len();
    for p in &corpus.world.people {
        let q = format!("class:Person {}", p.canonical_name());
        if !semex.search(&q, 5).is_empty() {
            found += 1;
        }
    }
    assert!(
        found as f64 >= total as f64 * 0.9,
        "{found}/{total} people findable by canonical name"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipeline_is_deterministic() {
    let (s1, d1) = build_from_disk(23, "det1");
    let (s2, d2) = build_from_disk(23, "det2");
    assert_eq!(s1.store().object_count(), s2.store().object_count());
    assert_eq!(s1.store().edge_count(), s2.store().edge_count());
    assert_eq!(s1.store().alias_count(), s2.store().alias_count());
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d2).ok();
}

#[test]
fn snapshot_survives_full_pipeline() {
    let (semex, dir) = build_from_disk(24, "snap");
    let path = dir.join("semex-snapshot.json");
    semex.save(&path).unwrap();
    let restored = Semex::load(&path, SemexConfig::default()).unwrap();
    assert_eq!(
        restored.store().object_count(),
        semex.store().object_count()
    );
    assert_eq!(restored.store().edge_count(), semex.store().edge_count());
    // Search results agree object-for-object.
    let q = "class:Publication adaptive";
    let a: Vec<_> = semex.search(q, 10).into_iter().map(|h| h.object).collect();
    let b: Vec<_> = restored
        .search(q, 10)
        .into_iter()
        .map(|h| h.object)
        .collect();
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn browse_paths_exist_in_reconciled_graph() {
    let (semex, dir) = build_from_disk(25, "browse");
    let store = semex.store();
    let c_person = store.model().class("Person").unwrap();
    let people: Vec<_> = store.objects_of_class(c_person).take(6).collect();
    let mut connected = 0;
    for w in people.windows(2) {
        if shortest_path(store, w[0], w[1], 5).is_some() {
            connected += 1;
        }
    }
    assert!(connected > 0, "the personal network is connected");
    std::fs::remove_dir_all(&dir).ok();
}
