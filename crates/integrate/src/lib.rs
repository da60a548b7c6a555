#![warn(missing_docs)]

//! On-the-fly integration of external sources.
//!
//! The SEMEX demo's third scenario: the user receives a new data source —
//! a spreadsheet of workshop participants, an exported contact list — and
//! wants it folded into their personal information space *without writing a
//! schema mapping by hand*. This crate provides:
//!
//! * [`SchemaMatcher`] — matches the columns of a tabular source against a
//!   domain-model class's attributes, combining **name-based** similarity
//!   (column header vs. attribute name, with a synonym table) and
//!   **instance-based** signals (do the values *look like* e-mails, years,
//!   dates, person names? do they overlap with values already in the
//!   store?);
//! * [`import`] — applies a [`Mapping`] to the table, creating references
//!   with `External` provenance and running reference reconciliation so the
//!   imported rows merge into existing objects where they denote the same
//!   entities. The returned [`ImportReport`] says how many rows landed on
//!   existing objects vs. created new ones — the demo's headline number.
//!   [`import_rows`] is the same without the reconciliation, for callers
//!   that reconcile the created references themselves.

mod matcher;

pub use matcher::{ColumnProfile, Mapping, MatchedColumn, SchemaMatcher};

use semex_extract::csv::Table;
use semex_model::Value;
use semex_recon::{reconcile_incremental, ReconConfig, Variant};
use semex_store::{ObjectId, SourceId, SourceInfo, SourceKind, Store, StoreError};

/// Outcome of importing an external table.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportReport {
    /// The provenance source registered for this import.
    pub source: SourceId,
    /// Data rows consumed.
    pub rows: usize,
    /// References created (one per non-empty row).
    pub created: usize,
    /// How many of the created references were merged into objects that
    /// existed *before* the import (reconciliation hits).
    pub merged_into_existing: usize,
    /// Rows skipped because every mapped cell was empty.
    pub skipped: usize,
}

/// Rows of a table written into the store, not yet reconciled: what
/// [`import_rows`] hands back so the caller can reconcile the created
/// references its own way (the platform does it through its persistent
/// reconciliation state) and then [`report`](ImportedRows::report).
#[derive(Debug, Clone, PartialEq)]
pub struct ImportedRows {
    /// The provenance source registered for this import.
    pub source: SourceId,
    /// Data rows consumed.
    pub rows: usize,
    /// The references created, one per non-empty row, in row order.
    pub created: Vec<ObjectId>,
    /// Rows skipped because every mapped cell was empty.
    pub skipped: usize,
    /// Store slots that existed before the import.
    preexisting: u64,
}

impl ImportedRows {
    /// The import's report, read from the store after reconciliation.
    pub fn report(&self, store: &Store) -> ImportReport {
        ImportReport {
            source: self.source,
            rows: self.rows,
            created: self.created.len(),
            merged_into_existing: self
                .created
                .iter()
                .filter(|&&o| store.resolve(o).0 < self.preexisting)
                .count(),
            skipped: self.skipped,
        }
    }
}

/// Import a table into the store under the given mapping, then reconcile
/// the created references against the space.
pub fn import(
    store: &mut Store,
    name: &str,
    table: &Table,
    mapping: &Mapping,
    recon_cfg: &ReconConfig,
) -> Result<ImportReport, StoreError> {
    let imported = import_rows(store, name, table, mapping)?;
    // Fold the new references into the existing space. Incremental: only
    // pairs touching the imported rows are considered.
    reconcile_incremental(store, &imported.created, Variant::Full, recon_cfg);
    Ok(imported.report(store))
}

/// Write a table's rows into the store under the given mapping, one
/// reference per non-empty row, without reconciling them.
pub fn import_rows(
    store: &mut Store,
    name: &str,
    table: &Table,
    mapping: &Mapping,
) -> Result<ImportedRows, StoreError> {
    let source = store.register_source(SourceInfo::new(name, SourceKind::External));
    let preexisting = store.slot_count() as u64;

    let mut created = Vec::new();
    let mut skipped = 0usize;
    for row in &table.rows {
        let mut values: Vec<(semex_model::AttrId, Value)> = Vec::new();
        for col in &mapping.columns {
            let raw = row[col.column].trim();
            if raw.is_empty() {
                continue;
            }
            let kind = store.model().attr_def(col.attr).kind;
            let value = match kind {
                semex_model::ValueKind::Str => Some(Value::from(raw)),
                semex_model::ValueKind::Int => raw.parse::<i64>().ok().map(Value::Int),
                semex_model::ValueKind::Float => raw.parse::<f64>().ok().map(Value::Float),
                semex_model::ValueKind::Date => semex_extract::parse_date(raw).map(Value::Date),
                semex_model::ValueKind::Bool => raw.parse::<bool>().ok().map(Value::Bool),
            };
            if let Some(v) = value {
                values.push((col.attr, v));
            }
        }
        if values.is_empty() {
            skipped += 1;
            continue;
        }
        let obj = store.add_object(mapping.class);
        for (a, v) in values {
            store.add_attr(obj, a, v)?;
        }
        store.add_source_to(obj, source);
        created.push(obj);
    }
    Ok(ImportedRows {
        source,
        rows: table.rows.len(),
        created,
        skipped,
        preexisting,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_extract::csv::parse_csv;
    use semex_extract::{vcard::extract_vcards, ExtractContext};
    use semex_model::names::{attr, class};

    fn store_with_contacts() -> Store {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("c", SourceKind::Contacts));
        let mut ctx = ExtractContext::new(&mut st, src);
        extract_vcards(
            "BEGIN:VCARD\nFN:Ann Walker\nEMAIL:ann@x.edu\nEND:VCARD\n\
             BEGIN:VCARD\nFN:Bob Fisher\nEMAIL:bob@y.org\nEND:VCARD\n",
            &mut ctx,
        )
        .unwrap();
        st
    }

    #[test]
    fn import_merges_known_people() {
        let mut st = store_with_contacts();
        let table = parse_csv(
            "full name,e-mail,phone\n\
             Ann Walker,ann@x.edu,555-0101\n\
             Carol Reyes,carol@z.net,555-0102\n\
             ,,\n",
        )
        .unwrap();
        let matcher = SchemaMatcher::new(&st);
        let mapping = matcher.match_table(&table).expect("a usable mapping");
        assert_eq!(
            st.model().class_def(mapping.class).name,
            class::PERSON,
            "people-shaped table maps to Person"
        );

        let report = import(
            &mut st,
            "attendees.csv",
            &table,
            &mapping,
            &ReconConfig::sequential(),
        )
        .unwrap();
        // The all-blank third line is dropped by the CSV parser itself.
        assert_eq!(report.rows, 2);
        assert_eq!(report.created, 2);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.merged_into_existing, 1, "Ann merges, Carol is new");

        // Ann's object pooled the phone number from the import.
        let c_person = st.model().class(class::PERSON).unwrap();
        let a_phone = st.model().attr(attr::PHONE).unwrap();
        let ann = st
            .objects_of_class(c_person)
            .find(|&p| st.label(p) == "Ann Walker")
            .unwrap();
        assert!(st.object(ann).has(a_phone));
        assert_eq!(st.class_count(c_person), 3, "Ann, Bob, Carol");
    }

    #[test]
    fn import_respects_value_kinds() {
        let mut st = store_with_contacts();
        let c_pub = st.model().class(class::PUBLICATION).unwrap();
        let a_title = st.model().attr(attr::TITLE).unwrap();
        let a_year = st.model().attr(attr::YEAR).unwrap();
        let table = parse_csv("title,year\nSome Paper,2004\nBad Year,not-a-year\n").unwrap();
        let mapping = Mapping {
            class: c_pub,
            columns: vec![
                MatchedColumn {
                    column: 0,
                    attr: a_title,
                    confidence: 1.0,
                },
                MatchedColumn {
                    column: 1,
                    attr: a_year,
                    confidence: 1.0,
                },
            ],
            score: 1.0,
        };
        let report = import(
            &mut st,
            "pubs.csv",
            &table,
            &mapping,
            &ReconConfig::sequential(),
        )
        .unwrap();
        assert_eq!(report.created, 2);
        let with_year = st
            .objects_of_class(c_pub)
            .filter(|&p| st.object(p).has(a_year))
            .count();
        assert_eq!(with_year, 1, "unparseable year dropped, row kept");
    }
}
