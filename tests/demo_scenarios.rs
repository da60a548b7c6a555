//! The SIGMOD 2005 demonstration script, as an executable test: the three
//! scenarios the paper walks the audience through, in order, on a
//! generated personal information space.

mod common;

use semex::corpus::{generate_personal, CorpusConfig};
use semex::query::summary;
use semex::SemexBuilder;

#[test]
fn the_demo_script() {
    // Setup: SEMEX is pointed at the user's desktop.
    let corpus = generate_personal(&CorpusConfig::tiny(2005).scaled_size(1.5));
    let dir = std::env::temp_dir().join(format!("semex-demo-script-{}", std::process::id()));
    corpus.write_to(&dir).unwrap();
    let mut semex = SemexBuilder::new()
        .add_directory("desktop", &dir)
        .build()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let recon = semex.report().recon.as_ref().unwrap();
    assert!(
        recon.merges > 0,
        "the audience first sees reconciliation consolidate the reference soup"
    );

    // ---------------------------------------------------------------
    // Scenario 1 — search lands on a single reconciled object.
    // ---------------------------------------------------------------
    let protagonist = &corpus.world.people[0];
    let hits = semex.search(&format!("class:Person {}", protagonist.canonical_name()), 5);
    assert!(!hits.is_empty(), "searching a person's name finds them");
    let person = hits[0].object;
    let view = semex.view(person);
    assert_eq!(view.class, "Person");
    assert!(
        !view.sources.is_empty(),
        "the object view shows where SEMEX knows this from"
    );

    // ---------------------------------------------------------------
    // Scenario 2 — browse by association from that object.
    // ---------------------------------------------------------------
    let neighborhood = summary::neighborhood_summary(semex.store(), person);
    assert!(
        !neighborhood.is_empty(),
        "every person in a personal space has associations"
    );
    // Derived associations evaluate on the fly.
    let coauthors = summary::derived(semex.store(), person, "CoAuthor").unwrap();
    let correspondents = summary::derived(semex.store(), person, "CorrespondedWith").unwrap();
    assert!(
        !coauthors.is_empty() || !correspondents.is_empty(),
        "the protagonist has co-authors or correspondents to click through"
    );

    // ---------------------------------------------------------------
    // Scenario 3 — a new source arrives and is integrated on the fly.
    // ---------------------------------------------------------------
    let known = &corpus.world.people[1];
    let csv = format!(
        "participant,mail\n{},{}\nBrand New Visitor,new@elsewhere.example\n",
        known.canonical_name(),
        known.emails[0]
    );
    let people_class = semex.store().model().class("Person").unwrap();
    let before = semex.store().class_count(people_class);
    let (confidence, report) = semex.integrate("workshop.csv", &csv).unwrap().unwrap();
    assert!(confidence > 0.5, "schema matched without user mapping");
    assert_eq!(report.created, 2);
    assert_eq!(
        report.merged_into_existing, 1,
        "the known participant folded into their existing object"
    );
    assert!(
        semex.store().class_count(people_class) <= before + 1,
        "at most the visitor is new"
    );
    assert_eq!(
        semex.search("class:Person visitor", 5).len(),
        1,
        "and the import is immediately searchable"
    );

    // Finale — the audience asks "where does SEMEX know that from?"
    let facts = semex.explain(person);
    assert!(!facts.is_empty(), "every fact carries provenance");
}
