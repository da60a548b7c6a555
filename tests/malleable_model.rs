//! The "malleable domain model" story end-to-end: a user extends the
//! built-in vocabulary with their own class and associations, instances
//! flow through the store, reconciliation treats the new class like any
//! reconcilable class, and browsing evaluates user-defined derived
//! associations.

use semex::model::{AssocDef, AttrDef, ClassDef, DerivedDef, DomainModel, PathExpr, ValueKind};
use semex::query::summary::{derived, neighborhood};
use semex::recon::{reconcile, ReconConfig, Variant};
use semex::store::{SourceInfo, SourceKind, Store};

fn extended_model() -> DomainModel {
    let mut m = DomainModel::builtin();
    // A research-data world: datasets, used by publications.
    let a_doi = m.add_attr(AttrDef::new("doi", ValueKind::Str)).unwrap();
    let name = m.attr("name").unwrap();
    let dataset = m
        .add_class(
            ClassDef::new("Dataset")
                .with_attrs(vec![name, a_doi])
                .with_label(name)
                .reconcilable(),
        )
        .unwrap();
    let publication = m.class("Publication").unwrap();
    let uses = m
        .add_assoc(AssocDef::new("UsesDataset", publication, dataset, "UsedBy"))
        .unwrap();
    m.add_derived(DerivedDef::new(
        "SharedDataset",
        publication,
        publication,
        PathExpr::path(vec![
            semex::model::PathStep::Forward(uses),
            semex::model::PathStep::Inverse(uses),
        ]),
    ))
    .unwrap();
    m
}

#[test]
fn custom_class_reconciles_and_browses() {
    let mut st = Store::new(extended_model());
    let src = st.register_source(SourceInfo::new("lab", SourceKind::Synthetic));
    let m = st.model();
    let dataset = m.class("Dataset").unwrap();
    let publication = m.class("Publication").unwrap();
    let a_name = m.attr("name").unwrap();
    let a_title = m.attr("title").unwrap();
    let uses = m.assoc("UsesDataset").unwrap();

    // Two references to the same dataset under slightly different names,
    // plus an unrelated one.
    let d1 = st.add_object(dataset);
    st.add_attr(d1, a_name, "Cora Citation Benchmark".into())
        .unwrap();
    let d2 = st.add_object(dataset);
    st.add_attr(d2, a_name, "Cora citation benchmrak".into())
        .unwrap();
    let d3 = st.add_object(dataset);
    st.add_attr(d3, a_name, "Reuters Newswire".into()).unwrap();

    let p1 = st.add_object(publication);
    st.add_attr(p1, a_title, "Paper One".into()).unwrap();
    let p2 = st.add_object(publication);
    st.add_attr(p2, a_title, "Paper Two".into()).unwrap();
    st.add_triple(p1, uses, d1, src).unwrap();
    st.add_triple(p2, uses, d2, src).unwrap();

    // Reconciliation merges the two Cora references (RefKind::Other
    // compares by name) and leaves Reuters alone.
    let report = reconcile(&mut st, Variant::Full, &ReconConfig::sequential());
    assert_eq!(st.class_count(dataset), 2, "{report:?}");
    assert_eq!(st.resolve(d1), st.resolve(d2));
    assert_ne!(st.resolve(d1), st.resolve(d3));

    // The user-defined derived association now connects the two papers
    // through the merged dataset.
    let shared = derived(&st, p1, "SharedDataset").unwrap();
    assert_eq!(shared, vec![p2]);

    // And the merged dataset browses back to both papers.
    let links = neighborhood(&st, st.resolve(d1));
    let used_by: Vec<_> = links.iter().filter(|l| l.label == "UsedBy").collect();
    assert_eq!(used_by.len(), 2);
}

#[test]
fn snapshot_preserves_extended_model() {
    let mut st = Store::new(extended_model());
    let dataset = st.model().class("Dataset").unwrap();
    let a_name = st.model().attr("name").unwrap();
    let d = st.add_object(dataset);
    st.add_attr(d, a_name, "Cora".into()).unwrap();

    let st2 = Store::from_json(&st.to_json().unwrap()).unwrap();
    assert_eq!(st2.model().class("Dataset"), Some(dataset));
    assert!(st2.model().derived("SharedDataset").is_some());
    assert_eq!(st2.class_count(dataset), 1);
}
