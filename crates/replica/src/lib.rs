#![warn(missing_docs)]

//! `semex-replica`: physical replication for the SEMEX serving stack —
//! journal shipping, read replicas, and no-lost-acks failover.
//!
//! The journal is already the primary's crash-durability mechanism; this
//! crate makes it the replication log too. A primary runs a
//! [`ReplicationHub`] next to its serve stack: followers connect, say
//! which sequence they hold, and the hub ships the journal to them
//! straight from disk — a snapshot frame when compaction removed the
//! follower's position, then sealed commit batches in lock-step. A
//! follower applies every batch through its **own** journal-first write
//! path, so its directory is an ordinary journal: recovery, compaction,
//! and inspection tools all work on it, and a follower serving reads at
//! epoch E is byte-identical to the primary at epoch E.
//!
//! Three guarantees, and where they come from:
//!
//! 1. **No client-acked write is ever lost by failover.** The hub is the
//!    serve stack's [`CommitTap`](semex_serve::CommitTap): after a batch
//!    commits, the writer blocks until every connected follower acked the
//!    new head *before* any client ack is released. Promote any follower
//!    after a primary crash and every acked write is in it.
//! 2. **Bounded staleness, typed.** A follower's serve stack carries a
//!    [`ReplicaRole`]: writes answer
//!    `not_primary`, reads lagging beyond `--max-lag` answer
//!    `stale_replica` — stale data is refused, never silently served.
//! 3. **Promotion is a wait-for-durable-prefix handshake.** The pull loop
//!    stops, the in-flight batch finishes applying, and only then does
//!    the follower accept writes — at an epoch every surviving acked
//!    write is below.
//!
//! The crash sweep in `tests/cluster_sweep.rs` proves guarantee 1 the
//! hard way: the primary is killed at *every* journal I/O operation and
//! *every* replication send point, a follower is promoted, and the
//! promoted state must contain every acked write and match the primary's
//! state byte-for-byte at the promoted epoch.

mod follower;
mod hub;

pub use follower::{bootstrap, ApplySink, Bootstrap, PullBackoff, Puller, ServeSink};
pub use hub::{HubConfig, ReplicationHub, SendGate};

use semex_core::Semex;
use semex_serve::{serve, PoolConfig, ReplicaRole, ServeConfig, ServeHandle, TenantId};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

/// A follower's running pieces: the read-serving stack and its role
/// (promote with a `promote` request, or [`ReplicaRole::promote`]).
#[derive(Debug)]
pub struct Follower {
    /// The serving stack (reads only, until promotion).
    pub serve: ServeHandle,
    /// The role gate shared with the serve stack.
    pub role: Arc<ReplicaRole>,
}

/// Stand up a complete follower: bootstrap `dir` from the primary
/// (snapshot + journal tail catch-up), recover a durable master from it
/// with `pool_config`'s platform and journal tunables, serve reads on
/// `addr` under a follower role with the given lag bound (write queue and
/// read cache as `pool_config` sets them),
/// and start the pull loop — with the promotion handshake pre-installed,
/// so a `promote` request (or a direct [`ReplicaRole::promote`]) flips
/// this process to primary without losing the in-flight batch.
pub fn follow(
    primary: SocketAddr,
    dir: &Path,
    addr: impl std::net::ToSocketAddrs,
    mut config: ServeConfig,
    pool_config: PoolConfig,
    max_lag: u64,
    name: impl Into<String>,
) -> Result<Follower, String> {
    bootstrap(primary, dir)?;
    let (durable, _report) =
        Semex::open_durable_with(dir, pool_config.semex.clone(), pool_config.journal.clone())
            .map_err(|e| format!("cannot open follower journal: {e}"))?;
    let role = Arc::new(ReplicaRole::follower(max_lag));
    config.role = Some(Arc::clone(&role));
    let serve = serve(durable, addr, config, pool_config)
        .map_err(|e| format!("cannot serve follower: {e}"))?;
    let sink = Arc::new(ServeSink::new(serve.replication_sink(), TenantId::DEFAULT));
    let puller = Puller::start(
        primary,
        name,
        sink,
        Some(Arc::clone(&role)),
        PullBackoff::default(),
    )
    .map_err(|e| format!("cannot start pull loop: {e}"))?;
    role.set_promote_hook(puller.into_promote_hook());
    Ok(Follower { serve, role })
}

/// Attach a replication hub to a primary's serve configuration: start
/// the hub on `listen` shipping the journal under `dir` (with
/// `boot_head` as the initial durable head) and install it as the
/// config's commit tap, so client acks wait for the connected follower
/// set. Returns the hub; serve with the modified config afterward.
pub fn replicate(
    dir: &Path,
    boot_head: u64,
    listen: impl std::net::ToSocketAddrs,
    config: &mut ServeConfig,
    hub_config: HubConfig,
) -> std::io::Result<Arc<ReplicationHub>> {
    let hub = ReplicationHub::start(dir.to_path_buf(), listen, boot_head, hub_config)?;
    config.commit_tap = Some(Arc::clone(&hub) as Arc<dyn semex_serve::CommitTap>);
    Ok(hub)
}
