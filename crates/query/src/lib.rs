#![warn(missing_docs)]

//! `semex-query`: a composable association-path query engine over SEMEX
//! epoch snapshots.
//!
//! SEMEX's browsing answers one hop at a time; this crate makes multi-hop
//! questions — *"papers by coauthors of people I emailed last month"* —
//! one plan:
//!
//! ```text
//! Person("me") <-Sender [date in 1748736000..1751328000] ->Recipient ->CoAuthor <-AuthoredBy
//! ```
//!
//! The pieces:
//!
//! - [`step`] — the algebra: forward/inverse hops with per-step fan-out
//!   bounds, class constraints, attribute and time-range filters, union /
//!   optional branches, and bounded closures with a visited-set cycle
//!   guard.
//! - [`plan`] — plans ([`PathQuery`]): validation against the domain
//!   model, a most-bound-first planner pass ([`PathQuery::optimize`]),
//!   and the canonical encoding that keys the serve layer's read cache
//!   and fingerprints cursors.
//! - [`parse`] — the small textual syntax shown above.
//! - [`exec`] — batched frontier expansion, parallelized across scoped
//!   worker threads for large frontiers; results are a pure function of
//!   `(snapshot, plan)` at any thread count.
//! - [`cursor`] — deterministic pagination: a cursor is `(epoch, plan
//!   fingerprint, position)`; replayed at the same epoch it reproduces
//!   the next page byte-for-byte, at any other epoch it is refused as
//!   expired.
//! - [`join`] — conjunctive triple patterns (`?pub AuthoredBy ?p . …`)
//!   evaluated on the same traversal core, under the same node budget.
//! - [`summary`] — browsing by association: an object's labelled
//!   neighbourhood, derived associations such as `CoAuthor`, and the
//!   shortest connection path between two objects.
//! - [`analyze`] — analyses over the association database: importance
//!   ranking, activity timelines and derived-association communities.
//!
//! The engine reads only `&`[`Store`](semex_store::Store) — in serving,
//! the store inside the `Arc<EpochSnapshot>` a tenant's writer publishes
//! — so queries run lock-free against immutable data and an epoch number
//! fully identifies the answer.

pub mod analyze;
pub mod cursor;
pub mod exec;
pub mod join;
pub mod parse;
pub mod plan;
pub mod step;
pub mod summary;

pub use cursor::{Cursor, CursorError};
pub use exec::{ExecConfig, ExecError, PageError, PageOut};
pub use parse::ParseError;
pub use plan::{PathQuery, PlanError, Start};
pub use step::{Dir, Filter, Step};
