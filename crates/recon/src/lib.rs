#![warn(missing_docs)]

//! SEMEX **reference reconciliation** — the system's core technical
//! contribution (Dong, Halevy & Madhavan, SIGMOD 2005).
//!
//! Extraction produces many *references* to each real-world entity: the same
//! person appears as `"Michael J. Carey"`, `"Carey, M."` and
//! `mcarey@ibm.com`; the same paper under truncated and typo'd titles.
//! Reconciliation decides which references denote the same entity and merges
//! them, turning the reference soup into a clean object graph.
//!
//! The algorithm follows the paper:
//!
//! 1. **Blocking** ([`blocking`]) — cheap candidate keys (name Soundex,
//!    e-mail local parts, rare title tokens) bound the pair space.
//! 2. **Attribute similarity** ([`score`]) — per-class comparators over the
//!    references' attribute values.
//! 3. **Dependency graph & propagation** ([`reconcile`]) — the similarity of
//!    two references depends on the similarity of their *associated*
//!    references (the authors of two papers, the venue of two papers, the
//!    publications of two people). Merge decisions propagate through this
//!    graph via a worklist until a fixed point.
//! 4. **Reference enrichment** — merged references pool their attribute
//!    values, enabling matches impossible for either reference alone
//!    (`"M. Carey" + mcarey@ibm.com` merges with `"Michael Carey"` only
//!    after one of them acquires the e-mail).
//!
//! Ablation [`Variant`]s keep the interface constant so the evaluation can
//! compare like with like, exactly as the paper's experiment section does:
//! [`Variant::AttrOnly`], [`Variant::Context`], [`Variant::Propagation`]
//! and [`Variant::Full`].
//!
//! ```
//! use semex_extract::{bibtex::extract_bibtex, ExtractContext};
//! use semex_recon::{reconcile, ReconConfig, Variant};
//! use semex_store::{SourceInfo, SourceKind, Store};
//!
//! let mut store = Store::with_builtin_model();
//! let src = store.register_source(SourceInfo::new("bib", SourceKind::Bibliography));
//! let mut ctx = ExtractContext::new(&mut store, src);
//! extract_bibtex(
//!     "@inproceedings{a, title={One Topic}, author={Michael Carey}, booktitle={V}, year=2004}\n\
//!      @inproceedings{b, title={Other Topic}, author={Michael J. Carey}, booktitle={V}, year=2005}",
//!     &mut ctx,
//! ).unwrap();
//! let person = store.model().class("Person").unwrap();
//! assert_eq!(store.class_count(person), 2);
//!
//! let report = reconcile(&mut store, Variant::Full, &ReconConfig::sequential());
//! assert_eq!(report.merges, 1);
//! assert_eq!(store.class_count(person), 1);
//! ```

//! The propagation fixed point is computed **sharded**: [`shard`] splits
//! the reference graph into connected components closed under cluster
//! sharing and evidence flow, each component's worklist runs independently
//! (in parallel when [`ReconConfig::threads`] allows), and the per-shard
//! clusterings are stitched back together — with the hard guarantee that
//! any thread count produces byte-identical clusters and merges.

//! Incremental runs ([`reconcile_incremental`]) consider only the pairs
//! that touch new references. A caller that reconciles every new source
//! as it arrives keeps a [`ReconState`]: a blocking index fed from the
//! store's event stream, so each run costs what the new references touch
//! rather than what the space holds, with results identical to a fresh
//! run.

pub mod blocking;
mod config;
mod engine;
pub mod eval;
mod refs;
pub mod score;
pub mod shard;
mod state;
mod union_find;
mod worklist;

pub use config::{ReconConfig, Variant};
pub use engine::{reconcile, reconcile_incremental, ReconReport};
pub use eval::{pair_metrics, Metrics};
pub use refs::{ParsedEmail, RefEntry, RefKind, RefTable, Vocab};
pub use shard::{partition, Shard};
pub use state::ReconState;
pub use union_find::UnionFind;
