#![warn(missing_docs)]

//! Umbrella crate re-exporting the full SEMEX public API.
//!
//! SEMEX ("SEMantic EXplorer") is a platform for personal information
//! management and integration (Dong & Halevy, SIGMOD 2005). This crate is the
//! single entry point a downstream application needs: it re-exports the
//! domain model, the association database, extraction, reference
//! reconciliation, indexing, browsing, on-the-fly integration, and the
//! concurrent query service.

pub use semex_core as core;
pub use semex_corpus as corpus;
pub use semex_extract as extract;
pub use semex_index as index;
pub use semex_integrate as integrate;
pub use semex_journal as journal;
pub use semex_model as model;
pub use semex_query as query;
pub use semex_recon as recon;
pub use semex_replica as replica;
pub use semex_serve as serve;
pub use semex_similarity as similarity;
pub use semex_store as store;

pub use semex_core::{DurableSemex, JournalConfig, Semex, SemexBuilder, SemexConfig};
