#![warn(missing_docs)]

//! Shared harness code for the SEMEX benchmarks and experiments: corpus
//! extraction, ground-truth labelling, and table formatting.
//!
//! The `experiments` binary in this crate regenerates every table and
//! figure of the evaluation (see `DESIGN.md` for the experiment index and
//! `EXPERIMENTS.md` for recorded results); the Criterion benches cover the
//! performance-sensitive paths (reconciliation, search, browsing,
//! extraction).

use semex_corpus::{EntityKind, GroundTruth, PersonalCorpus};
use semex_extract::{
    bibtex::extract_bibtex, email::extract_mbox, html::extract_html, ical::extract_ical,
    latex::extract_latex, vcard::extract_vcards, ExtractContext,
};
use semex_model::names::{attr, class};
use semex_model::ClassId;
use semex_store::{ObjectId, SourceInfo, SourceKind, Store};
use std::collections::HashMap;

/// Extract a rendered corpus directly from its in-memory files (no disk
/// round-trip): bibliographies first so LaTeX citations resolve, web pages
/// last so name-mention spotting sees every person. Each file registers
/// its own provenance source, like a real per-file desktop deployment.
pub fn extract_corpus(corpus: &PersonalCorpus) -> Store {
    let mut st = Store::with_builtin_model();
    let seed = st.register_source(SourceInfo::new("corpus", SourceKind::Synthetic));
    let mut sources: HashMap<&str, semex_store::SourceId> = HashMap::new();
    for (path, _) in &corpus.files {
        let kind = match path.rsplit('.').next().unwrap_or("") {
            "bib" => SourceKind::Bibliography,
            "mbox" | "eml" => SourceKind::Email,
            "vcf" => SourceKind::Contacts,
            "ics" => SourceKind::Calendar,
            "tex" => SourceKind::Latex,
            "html" | "htm" => SourceKind::FileSystem,
            _ => SourceKind::Synthetic,
        };
        sources.insert(
            path.as_str(),
            st.register_source(SourceInfo::new(path, kind)),
        );
    }
    let mut ctx = ExtractContext::new(&mut st, seed);
    for (path, content) in &corpus.files {
        if path.ends_with(".bib") {
            ctx.set_source(sources[path.as_str()]);
            extract_bibtex(content, &mut ctx).expect("generated bibtex parses");
        }
    }
    for (path, content) in &corpus.files {
        ctx.set_source(sources[path.as_str()]);
        if path.ends_with(".mbox") || path.ends_with(".eml") {
            extract_mbox(content, &mut ctx).expect("generated mbox parses");
        } else if path.ends_with(".vcf") {
            extract_vcards(content, &mut ctx).expect("generated vcards parse");
        } else if path.ends_with(".ics") {
            extract_ical(content, &mut ctx).expect("generated calendar parses");
        } else if path.ends_with(".tex") {
            extract_latex(content, &mut ctx).expect("generated latex parses");
        }
    }
    // Web pages last, so mention spotting sees every extracted person.
    for (path, content) in &corpus.files {
        if path.ends_with(".html") || path.ends_with(".htm") {
            ctx.set_source(sources[path.as_str()]);
            extract_html(content, &format!("file://{path}"), &mut ctx)
                .expect("generated html parses");
        }
    }
    st
}

/// Extract a standalone BibTeX string (used for the Cora corpus).
pub fn extract_bib_str(bib: &str) -> Store {
    let mut st = Store::with_builtin_model();
    let src = st.register_source(SourceInfo::new("cora", SourceKind::Bibliography));
    let mut ctx = ExtractContext::new(&mut st, src);
    extract_bibtex(bib, &mut ctx).expect("generated bibtex parses");
    st
}

/// Label every reconcilable reference with its true entity, encoded as
/// `kind_tag << 32 | entity_id`. References whose surface forms the oracle
/// does not know stay unlabelled (and are excluded from metrics).
pub fn label_references(store: &Store, truth: &GroundTruth) -> HashMap<ObjectId, u64> {
    let model = store.model();
    let a_name = model.attr(attr::NAME).expect("builtin");
    let a_email = model.attr(attr::EMAIL).expect("builtin");
    let a_title = model.attr(attr::TITLE).expect("builtin");
    let mut labels = HashMap::new();
    let kinds = [
        (class::PERSON, EntityKind::Person, 1u64),
        (class::PUBLICATION, EntityKind::Publication, 2),
        (class::VENUE, EntityKind::Venue, 3),
        (class::ORGANIZATION, EntityKind::Organization, 4),
    ];
    for (cname, kind, tag) in kinds {
        let cid = model.class(cname).expect("builtin");
        for obj in store.objects_of_class(cid) {
            let o = store.object(obj);
            let mut entity = None;
            if kind == EntityKind::Person {
                entity = o.strs(a_email).find_map(|e| truth.entity_of(kind, e));
            }
            if entity.is_none() {
                let a = if kind == EntityKind::Publication {
                    a_title
                } else {
                    a_name
                };
                entity = o.strs(a).find_map(|f| truth.entity_of(kind, f));
            }
            if let Some(e) = entity {
                labels.insert(obj, (tag << 32) | e as u64);
            }
        }
    }
    labels
}

/// Per-class labels for per-class metrics: keep only labels whose kind tag
/// matches.
pub fn labels_of_kind(labels: &HashMap<ObjectId, u64>, tag: u64) -> HashMap<ObjectId, u64> {
    labels
        .iter()
        .filter(|(_, &l)| l >> 32 == tag)
        .map(|(&o, &l)| (o, l))
        .collect()
}

/// Minimal aligned-column table printer for experiment output.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("| ");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!("{c:<w$} | "));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep, &widths));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// The paper's motivating measure, reported by experiment E2: how
/// fragmented is the information about each entity? Computed over a
/// class's live objects.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentationStats {
    /// Live objects of the class.
    pub entities: usize,
    /// Mean distinct surface forms (label-attribute values) per object —
    /// before reconciliation this is ~1 by construction; after, it shows
    /// how many spellings each consolidated entity pooled.
    pub avg_forms: f64,
    /// Mean distinct provenance sources per object.
    pub avg_sources: f64,
    /// Fraction of objects whose facts span more than one source — the
    /// cross-application fragmentation SEMEX exists to heal.
    pub cross_source_fraction: f64,
}

/// Compute [`FragmentationStats`] for a class.
pub fn fragmentation(store: &Store, class: ClassId) -> FragmentationStats {
    let model = store.model();
    let label_attr = model.class_def(class).label_attr;
    let mut entities = 0usize;
    let mut forms = 0usize;
    let mut sources = 0usize;
    let mut cross = 0usize;
    for obj in store.objects_of_class(class) {
        entities += 1;
        let o = store.object(obj);
        if let Some(a) = label_attr {
            forms += o.values(a).count().max(1);
        } else {
            forms += 1;
        }
        sources += o.sources.len().max(1);
        if o.sources.len() > 1 {
            cross += 1;
        }
    }
    let n = entities.max(1) as f64;
    FragmentationStats {
        entities,
        avg_forms: forms as f64 / n,
        avg_sources: sources as f64 / n,
        cross_source_fraction: cross as f64 / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_corpus::{generate_personal, CorpusConfig};

    #[test]
    fn extraction_and_labels_cover_most_references() {
        let corpus = generate_personal(&CorpusConfig::tiny(5));
        let store = extract_corpus(&corpus);
        let labels = label_references(&store, &corpus.truth);
        let c_person = store.model().class(class::PERSON).unwrap();
        let persons = store.class_count(c_person);
        let person_labels = labels_of_kind(&labels, 1).len();
        assert!(persons > 0);
        assert!(
            person_labels as f64 >= persons as f64 * 0.9,
            "{person_labels}/{persons} labelled"
        );
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["variant", "f1"]);
        t.row(vec!["attr-only".into(), "0.90".into()]);
        t.row(vec!["full".into(), "0.95".into()]);
        let s = t.render();
        assert!(s.contains("| attr-only | 0.90 |"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn fragmentation_reflects_merging() {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let mut ctx = ExtractContext::new(&mut st, src);
        extract_bibtex(
            "@inproceedings{a, title={P1 one}, author={Hub Person and Spoke One}, booktitle={V}, year=2001}",
            &mut ctx,
        )
        .unwrap();
        extract_mbox(
            "From: Hub Person <hub@x.edu>\nTo: Spoke Two <s2@x.edu>\nSubject: s\n\nb",
            &mut ctx,
        )
        .unwrap();
        let c_person = st.model().class(class::PERSON).unwrap();
        let before = fragmentation(&st, c_person);
        assert_eq!(before.entities, 4);
        assert_eq!(before.avg_forms, 1.0);
        assert_eq!(before.cross_source_fraction, 0.0);
        // Merge the two Hub Person references: forms per entity rise,
        // entity count falls.
        let hubs: Vec<ObjectId> = st
            .objects_of_class(c_person)
            .filter(|&p| st.label(p) == "Hub Person")
            .collect();
        st.merge(hubs[0], hubs[1]).unwrap();
        let after = fragmentation(&st, c_person);
        assert_eq!(after.entities, 3);
        assert!(after.avg_forms >= before.avg_forms);
    }
}
