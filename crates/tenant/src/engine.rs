//! The epoch snapshot engine: reads run against immutable published
//! snapshots, never against the live master.
//!
//! The servicing writer is the only publisher. After applying a write batch
//! it takes a [`Snapshot`](semex_core::Snapshot) of the master — a
//! copy-on-write clone that copies a root pointer per chunked field, so
//! taking it costs O(1), not O(space), and the next batch copies only the
//! chunks it touches — tags it with its epoch, and swaps it in behind an
//! `Arc`.
//! Reader threads grab the current `Arc` under a briefly-held read lock and
//! then query entirely lock-free: a reader holding epoch N keeps a
//! consistent view of the whole platform (store *and* index) no matter how
//! many batches publish behind it, and two reads through the same grabbed
//! `Arc` can never observe different states — there is no torn epoch.
//!
//! Epochs are **event-sequence numbers**: a published snapshot's epoch is
//! its store's event head, so it is derived from the state, never tallied
//! beside it. On a journal-backed tenant the head is the journal's durable
//! sequence. That makes epochs survive eviction — a tenant recovered from
//! its journal reboots at exactly the epoch it was evicted at — which is
//! what lets the eviction-equivalence suite demand byte-identical *epochs*,
//! not just results. Every store mutation advances the head, so two
//! different states are never published under one epoch.

use semex_core::Snapshot;
use std::sync::{Arc, RwLock};

/// One published state: a consistent, immutable store+index pair tagged
/// with the epoch counter that identifies it on the wire.
#[derive(Debug)]
pub struct EpochSnapshot {
    /// The state's store event head: monotonic across publications, and
    /// the durable event sequence on a journal-backed tenant.
    pub epoch: u64,
    /// The state itself.
    pub snap: Snapshot,
}

impl EpochSnapshot {
    /// Tag a state with its epoch.
    fn of(snap: Snapshot) -> EpochSnapshot {
        let epoch = snap.store().event_head();
        EpochSnapshot { epoch, snap }
    }
}

/// Publishes [`EpochSnapshot`]s by atomic `Arc` swap.
///
/// `load` is wait-free in spirit: the read lock is held only for the
/// duration of an `Arc::clone`, so readers never wait on query work and the
/// writer never waits on readers (old epochs are freed by the last reader
/// dropping them).
#[derive(Debug)]
pub struct SnapshotEngine {
    current: RwLock<Arc<EpochSnapshot>>,
}

impl SnapshotEngine {
    /// Boot the engine with the initial state, at its epoch.
    pub fn new(initial: Snapshot) -> SnapshotEngine {
        SnapshotEngine {
            current: RwLock::new(Arc::new(EpochSnapshot::of(initial))),
        }
    }

    /// The current snapshot. Cheap; call once per request and do all of the
    /// request's reads against the returned `Arc`.
    pub fn load(&self) -> Arc<EpochSnapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.current.read().expect("snapshot lock poisoned").epoch
    }

    /// Swap in a new state, returning its epoch. In-flight readers keep
    /// their old epoch alive until they drop it. Publishing an unchanged
    /// state republishes the same epoch.
    ///
    /// The replaced state is dropped after the write lock is released:
    /// when no reader holds it, dropping it frees every chunk the new state
    /// no longer shares, and no `load` should wait on that.
    pub fn publish(&self, snap: Snapshot) -> u64 {
        let next = Arc::new(EpochSnapshot::of(snap));
        let epoch = next.epoch;
        let replaced = {
            let mut current = self.current.write().expect("snapshot lock poisoned");
            debug_assert!(epoch >= current.epoch, "epochs never regress");
            std::mem::replace(&mut *current, next)
        };
        drop(replaced);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_core::{SemexBuilder, SourceSpec};

    #[test]
    fn epochs_follow_the_event_head_and_are_isolated() {
        let mut semex = SemexBuilder::new()
            .add_mbox("inbox", "From: a@b.c\nSubject: first\n\nhello")
            .build()
            .unwrap();
        let engine = SnapshotEngine::new(semex.snapshot());
        assert_eq!(engine.epoch(), 0);
        let held = engine.load();
        semex
            .ingest(SourceSpec::Mbox {
                name: "more".into(),
                content: "From: d@e.f\nSubject: second\n\nhello".into(),
            })
            .unwrap();
        let head = semex.store().event_head();
        assert!(head > 0);
        assert_eq!(engine.publish(semex.snapshot()), head);
        // An unchanged state republishes under the same epoch.
        assert_eq!(engine.publish(semex.snapshot()), head);
        // The reader that grabbed epoch 0 still sees epoch 0.
        assert_eq!(held.epoch, 0);
        assert!(held.snap.search("second", 5).is_empty());
        let now = engine.load();
        assert_eq!(now.epoch, now.snap.store().event_head());
        assert_eq!(now.snap.search("second", 5).len(), 1);
    }
}
