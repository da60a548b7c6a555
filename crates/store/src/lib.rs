#![warn(missing_docs)]

//! The SEMEX **association database**.
//!
//! All extracted and reconciled personal information lives here: *objects*
//! (instances of domain-model classes) carrying multi-valued attributes, and
//! *association triples* `(subject, assoc, object)` linking them. Every
//! object and triple records its provenance — the source it was extracted
//! from — so the user can always trace a fact back to the e-mail, file or
//! bibliography entry it came from.
//!
//! The store keeps forward and inverse adjacency per association type
//! (browsing is bidirectional) in one edge record per object slot, plus a
//! per-class object index, and supports *object merging*, the primitive
//! reference reconciliation is built on:
//! merging re-points all edges of the losing object to the winner and pools
//! attributes, while keeping the loser resolvable as an alias.
//!
//! Persistence has two encodings. The versioned binary image
//! ([`Store::to_binary`] / [`Store::from_binary`], magic `SEMEXSNP`) is the
//! one journal snapshots are written in. JSON ([`Store::to_json`] /
//! [`Store::from_json`]) backs the plain snapshot file, the replication
//! wire and the reading of legacy journal snapshots.
//! For durable, incremental persistence the store can additionally record a
//! typed stream of mutation events ([`StoreEvent`], [`Store::enable_events`])
//! that the `semex-journal` crate appends to a checksummed write-ahead log;
//! replaying recorded events onto the snapshot's state reproduces the store
//! exactly ([`Store::apply_event`]).
//!
//! ```
//! use semex_store::{SourceInfo, SourceKind, Store};
//! use semex_model::Value;
//!
//! let mut store = Store::with_builtin_model();
//! let src = store.register_source(SourceInfo::new("example", SourceKind::Synthetic));
//! let person = store.model().class("Person").unwrap();
//! let publication = store.model().class("Publication").unwrap();
//! let name = store.model().attr("name").unwrap();
//! let title = store.model().attr("title").unwrap();
//! let authored = store.model().assoc("AuthoredBy").unwrap();
//!
//! let ann = store.add_object(person);
//! store.add_attr(ann, name, Value::from("Ann Walker")).unwrap();
//! let also_ann = store.add_object(person);
//! store.add_attr(also_ann, name, Value::from("Walker, Ann")).unwrap();
//! let paper = store.add_object(publication);
//! store.add_attr(paper, title, Value::from("Adaptive Indexing")).unwrap();
//! store.add_triple(paper, authored, also_ann, src).unwrap();
//!
//! // Reconciliation's primitive: merge re-points edges and pools values.
//! store.merge(ann, also_ann).unwrap();
//! assert_eq!(store.neighbors(paper, authored), &[ann]);
//! assert_eq!(store.object(ann).strs(name).count(), 2);
//! ```

mod adjacency;
pub mod binary;
mod chunked;
mod events;
mod object;
mod provenance;
mod snapshot;
mod stats;
mod store;
mod triple;

pub use binary::{BinaryError, SnapshotReader};
pub use chunked::{ChunkVec, CHUNK};
pub use events::StoreEvent;
pub use object::{Object, ObjectId};
pub use provenance::{SourceId, SourceInfo, SourceKind};
pub use snapshot::SnapshotError;
pub use stats::StoreStats;
pub use store::{Store, StoreError};
pub use triple::Triple;
