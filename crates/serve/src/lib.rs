#![warn(missing_docs)]

//! `semex-serve`: a concurrent, multi-tenant query service over SEMEX
//! personal spaces.
//!
//! The desktop SEMEX of the paper is single-user; this crate makes one
//! process serve many concurrent sessions — across thousands of personal
//! spaces — with four ideas:
//!
//! 1. **Snapshot-isolated reads.** Reads never touch a live platform.
//!    Each tenant's servicing writer publishes immutable
//!    [`semex_core::Snapshot`]s behind an `Arc` (see [`SnapshotEngine`]);
//!    a reader pins one epoch per request and queries it lock-free, so
//!    searches and browses proceed at full parallelism while writes
//!    commit — and never observe a half-applied batch.
//! 2. **Serialized, coalescing write paths.** Each tenant's mutations
//!    funnel through its bounded queue into a shared pool of writer
//!    workers; at most one worker services a tenant at a time, so each
//!    tenant keeps a serialized write path while independent tenants
//!    commit in parallel. Queued writes are drained in batches: N writes
//!    cost one index refresh, one journal fsync, and one snapshot
//!    publication. Acks carry the publication epoch and are sent only
//!    after the commit, so an acknowledged write is both immediately
//!    readable and crash-durable.
//! 3. **Multi-tenancy under a memory budget.** A
//!    [`TenantPool`](semex_tenant::TenantPool) maps tenant ids to
//!    journal directories, recovers cold tenants on first request, and
//!    evicts idle ones LRU-first when the resident set exceeds its
//!    budget — acked-durable-before-ack is what makes eviction safe.
//!    Requests address tenants via the `tenant` field on the request
//!    frame; an absent field means `"default"`, so pre-tenancy clients
//!    work unchanged.
//! 4. **Admission control.** Bounded connection, per-tenant in-flight,
//!    and per-tenant write queues shed excess load with typed
//!    `overloaded` responses instead of stalling or growing without
//!    bound; [`Client::request_with_retry`] turns those refusals into
//!    jittered, capped exponential backoff.
//! 5. **Epoch-keyed read caching.** With a cache budget configured
//!    ([`PoolConfig::cache_budget`], for [`serve`] and [`serve_tenants`]),
//!    read answers are cached as encoded frame payloads keyed on
//!    `(tenant, epoch, canonical request)` — immutable snapshots make
//!    such entries *provably* fresh — and concurrent identical misses
//!    coalesce into one evaluation (see [`semex_cache`]). A cached server
//!    answers byte-identically to a cacheless one, epochs included.
//!
//! The wire protocol ([`protocol`]) is length-prefixed JSON over TCP —
//! std-only (the [`json`] module is a self-contained codec) — and
//! versioned: frames carry an optional `v` field, and a foreign version
//! is refused with a typed `unsupported_version` error. Start a
//! single-space server with [`serve`] or a multi-tenant one with
//! [`serve_tenants`], talk to it with [`Client`] or the `semex serve` /
//! `semex client` CLI subcommands, and stop it with a `shutdown` request
//! or [`ServeHandle::shutdown`]; [`ServeHandle::join`] returns every
//! thread and hands back the final state.

pub mod json;
pub mod protocol;

mod client;
mod role;
mod server;
mod writer;

pub use client::{Client, RetryPolicy};
pub use role::{CommitTap, ReplicaRole};
pub use semex_cache::{ReadCache, TenantCacheStats};
pub use semex_tenant::{
    EpochSnapshot, PoolConfig, PoolReport, PoolSnapshot, SnapshotEngine, TenantId, TenantRegistry,
};
pub use server::{serve, serve_tenants, ReplicationSink, ServeConfig, ServeHandle, ServeReport};
pub use writer::{WriteCommand, WriterReport};
