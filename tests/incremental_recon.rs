//! Incremental reconciliation: correctness (new references merge exactly
//! where a full run would put them) and the performance claim (orders of
//! magnitude fewer candidate evaluations on a settled store).

mod common;

use common::extract_corpus;
use semex::corpus::{generate_personal, CorpusConfig};
use semex::recon::{reconcile, reconcile_incremental, ReconConfig, Variant};
use semex::store::ObjectId;

#[test]
fn incremental_matches_full_for_new_references() {
    let corpus = generate_personal(&CorpusConfig::tiny(61));
    let mut store = extract_corpus(&corpus);
    reconcile(&mut store, Variant::Full, &ReconConfig::default());

    // Add fresh references for three known people (canonical name +
    // primary address — unambiguous), then reconcile incrementally.
    let c_person = store.model().class("Person").unwrap();
    let a_name = store.model().attr("name").unwrap();
    let a_email = store.model().attr("email").unwrap();
    let mut new_objects = Vec::new();
    for p in corpus.world.people.iter().take(3) {
        let o = store.add_object(c_person);
        store
            .add_attr(o, a_name, p.canonical_name().as_str().into())
            .unwrap();
        store
            .add_attr(o, a_email, p.emails[0].as_str().into())
            .unwrap();
        new_objects.push(o);
    }
    let before = store.class_count(c_person);
    let report = reconcile_incremental(
        &mut store,
        &new_objects,
        Variant::Full,
        &ReconConfig::default(),
    );
    let after = store.class_count(c_person);
    assert_eq!(
        after,
        before - 3,
        "all three merge into existing objects: {report:?}"
    );
    for o in &new_objects {
        assert_ne!(store.resolve(*o), *o, "new reference became an alias");
    }
}

#[test]
fn incremental_is_much_cheaper_than_full() {
    let corpus = generate_personal(&CorpusConfig::tiny(62).scaled_size(2.0));
    let mut store = extract_corpus(&corpus);
    let full = reconcile(&mut store, Variant::Full, &ReconConfig::default());

    // One new reference on the settled store.
    let c_person = store.model().class("Person").unwrap();
    let a_name = store.model().attr("name").unwrap();
    let o = store.add_object(c_person);
    store
        .add_attr(
            o,
            a_name,
            corpus.world.people[0].canonical_name().as_str().into(),
        )
        .unwrap();
    let inc = reconcile_incremental(&mut store, &[o], Variant::Full, &ReconConfig::default());

    assert!(
        inc.candidates * 10 <= full.candidates.max(10),
        "incremental considers a tiny slice: {} vs {}",
        inc.candidates,
        full.candidates
    );
    assert_eq!(
        full.examined, full.refs,
        "a full run examines every reference"
    );
    assert!(
        inc.examined * 2 < inc.refs,
        "incremental examines a neighbourhood: {} of {} references",
        inc.examined,
        inc.refs
    );
}

/// The same one-message ingest into a quarter-size space and a double-size
/// one examines the same neighbourhood, give or take the few references
/// whose blocking keys happen to collide with the message's names.
#[test]
fn one_message_examines_the_same_neighbourhood_at_any_scale() {
    use semex::extract::{bibtex::extract_bibtex, email::extract_mbox, ExtractContext};
    use semex::store::{SourceInfo, SourceKind};

    let run = |scale: f64| {
        let corpus = generate_personal(&CorpusConfig::tiny(64).scaled_size(scale));
        let mut store = extract_corpus(&corpus);
        // The people the message is about: two co-authors with a paper.
        let src = store.register_source(SourceInfo::new("known", SourceKind::Bibliography));
        let mut ctx = ExtractContext::new(&mut store, src);
        extract_bibtex(
            "@inproceedings{q, title={Quillwork for tidewater archives}, \
             author={Zebulon Quillfeather and Ottoline Varga}, booktitle={Tidewater Days}, year=2004}",
            &mut ctx,
        )
        .unwrap();
        reconcile(&mut store, Variant::Full, &ReconConfig::default());

        let src = store.register_source(SourceInfo::new("inbox", SourceKind::Email));
        let first_new = store.slot_count() as u64;
        let mut ctx = ExtractContext::new(&mut store, src);
        extract_mbox(
            "From probe 1\nFrom: Z. Quillfeather <zquillfeather@tidewater.example>\n\
             To: Ottoline Varga <ovarga@tidewater.example>\nSubject: archives\n\nsee you\n",
            &mut ctx,
        )
        .unwrap();
        let new: Vec<ObjectId> = (first_new..store.slot_count() as u64)
            .map(ObjectId)
            .collect();
        reconcile_incremental(&mut store, &new, Variant::Full, &ReconConfig::default())
    };
    let (small, large) = (run(0.25), run(2.0));
    assert!(
        large.refs >= 5 * small.refs,
        "the spaces differ in size: {} vs {} references",
        small.refs,
        large.refs
    );
    assert!(small.merges > 0, "the message reconciles: {small:?}");
    assert!(
        large.examined.abs_diff(small.examined) <= 8,
        "examined {} at x0.25 but {} at x2",
        small.examined,
        large.examined
    );
}

#[test]
fn incremental_with_unknown_ids_is_a_noop() {
    let corpus = generate_personal(&CorpusConfig::tiny(63));
    let mut store = extract_corpus(&corpus);
    reconcile(&mut store, Variant::Full, &ReconConfig::default());
    let before = store.object_count();
    let report = reconcile_incremental(
        &mut store,
        &[ObjectId(999_999)],
        Variant::Full,
        &ReconConfig::default(),
    );
    assert_eq!(report.candidates, 0);
    assert_eq!(report.merges, 0);
    assert_eq!(store.object_count(), before);
}
