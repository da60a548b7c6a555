//! Multi-tenant hosting for SEMEX personal spaces.
//!
//! One process serves thousands of personal information spaces. Each tenant
//! is an independent platform — its own store, index, and journal directory
//! — but tenants share the process's memory and worker threads. This crate
//! provides the pieces the serving layer composes:
//!
//! - [`TenantId`] / [`TenantRegistry`] — validated ids mapped to
//!   directory-per-space journal layouts under one root.
//! - [`SnapshotEngine`] — the epoch-tagged snapshots a tenant's readers
//!   see, published from the single mutable copy of its platform.
//! - [`TenantPool`] — the heart of the subsystem: LRU activation and
//!   eviction under a resident-memory budget, cold recovery from the
//!   journal on first touch, per-tenant bounded write queues drained by a
//!   shared worker pool, and per-tenant admission control.
//!
//! The invariant the pool preserves end to end: **an acknowledged write is
//! durable before it is acknowledged**, so evicting a tenant (draining and
//! dropping its in-memory state) and recovering it later from the journal
//! yields byte-identical query results *and epochs*.

#![warn(missing_docs)]

mod engine;
mod id;
mod pool;
mod registry;

pub use engine::{EpochSnapshot, SnapshotEngine};
pub use id::TenantId;
pub use pool::{
    resident_cost, EnqueueError, InflightPermit, PoolConfig, PoolFinal, PoolReport, PoolSnapshot,
    Tenant, TenantPool,
};
pub use registry::TenantRegistry;
pub use semex_cache::{CacheConfig, CacheKey, ReadCache, TenantCacheStats};

use semex_core::JournalError;
use std::fmt;

/// Why a tenant operation failed.
#[derive(Debug)]
pub enum TenantError {
    /// The tenant id failed validation (see [`TenantId::new`]).
    InvalidId {
        /// The offending name.
        name: String,
        /// What rule it broke.
        reason: &'static str,
    },
    /// The tenant has no journal directory and the pool does not provision
    /// missing tenants.
    Unknown(String),
    /// Opening or recovering the tenant's journal failed.
    Journal(JournalError),
    /// Provisioning the tenant's directory failed.
    Io(std::io::Error),
    /// The pool is shutting down.
    ShuttingDown,
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantError::InvalidId { name, reason } => {
                write!(f, "invalid tenant id {name:?}: {reason}")
            }
            TenantError::Unknown(name) => write!(f, "unknown tenant {name:?}"),
            TenantError::Journal(e) => write!(f, "tenant journal error: {e}"),
            TenantError::Io(e) => write!(f, "tenant directory error: {e}"),
            TenantError::ShuttingDown => f.write_str("tenant pool is shutting down"),
        }
    }
}

impl std::error::Error for TenantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TenantError::Journal(e) => Some(e),
            TenantError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JournalError> for TenantError {
    fn from(e: JournalError) -> TenantError {
        TenantError::Journal(e)
    }
}
