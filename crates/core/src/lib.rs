#![warn(missing_docs)]

//! The SEMEX platform: the public API a downstream application uses.
//!
//! [`Semex`] wires the subsystems into the pipeline the paper describes:
//!
//! ```text
//! sources ──extract──► association DB ──reconcile──► clean object graph
//!                                             │
//!                        keyword index ◄──index┘
//! ```
//!
//! Build a platform with [`SemexBuilder`]: register personal-information
//! sources (mbox archives, vCard files, BibTeX bibliographies, LaTeX
//! sources, whole directory trees), then [`SemexBuilder::build`] extracts
//! everything, runs reference reconciliation, and indexes the resulting
//! objects. The built [`Semex`] answers keyword [`Snapshot::search`], shows
//! an object with its labelled associations ([`Snapshot::view`], browsed
//! through [`semex_query::summary`]), folds external tables in on the fly
//! ([`Semex::integrate`]) and snapshots to disk. Opened on a journal
//! directory ([`Semex::open_durable`]) the same type commits its mutations
//! to a write-ahead journal.
//!
//! ```
//! use semex_core::SemexBuilder;
//!
//! let semex = SemexBuilder::new()
//!     .add_bibtex("library", "@inproceedings{d5, title={Reference Reconciliation}, \
//!                  author={Dong, Xin and Halevy, Alon}, booktitle={SIGMOD}, year=2005}")
//!     .add_mbox("inbox", "From: Xin Dong <luna@cs.example.edu>\nTo: alon@cs.example.edu\n\
//!                Subject: demo\n\ndraft attached")
//!     .build()
//!     .expect("pipeline");
//! let hits = semex.search("reconciliation", 10);
//! assert!(!hits.is_empty());
//! ```

mod facade;
mod pipeline;

pub use facade::{DurableSemex, ObjectView, SearchResult, Semex, Snapshot};
pub use pipeline::{BuildReport, SemexBuilder, SemexConfig, SemexError, SourceSpec};
pub use semex_journal::{CompactionReport, JournalConfig, JournalError, RecoveryReport};
