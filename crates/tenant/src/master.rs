//! The master platform a tenant's servicing writer owns: either
//! journal-backed (production) or ephemeral (tests, demos).

use semex_core::{DurableSemex, JournalError, Semex, Snapshot};

/// The single mutable copy of one tenant's platform.
///
/// Only the worker currently servicing the tenant ever touches it; everyone
/// else sees published [`Snapshot`](semex_core::Snapshot)s. The two
/// variants differ only in what [`Master::commit`] means: a durable master
/// journals the batch's events and fsyncs (so an acked write survives a
/// crash), an ephemeral master just folds them into the index.
#[derive(Debug)]
pub enum Master {
    /// Journal-backed: commits are durable, journal failures degrade the
    /// platform to read-only.
    Durable(DurableSemex),
    /// In-memory only: commits cannot fail and ack nothing durable.
    Ephemeral(Semex),
}

impl Master {
    /// The platform, read-only.
    pub fn semex(&self) -> &Semex {
        match self {
            Master::Durable(d) => d,
            Master::Ephemeral(s) => s,
        }
    }

    /// The platform, mutable (servicing worker only).
    pub fn semex_mut(&mut self) -> &mut Semex {
        match self {
            Master::Durable(d) => d,
            Master::Ephemeral(s) => s,
        }
    }

    /// Commit the current write batch: publish its store events (the
    /// index takes them in one delta) and — on a durable master — append
    /// them to the journal and fsync. Returns the number of events
    /// committed (for an ephemeral master, the number the index took),
    /// which is also how far the publication epoch advances: a durable
    /// master's epoch is its journal's sequence.
    pub fn commit(&mut self) -> Result<usize, JournalError> {
        match self {
            Master::Durable(d) => d.commit(),
            Master::Ephemeral(s) => Ok(s.flush_index()),
        }
    }

    /// Apply one replicated commit batch starting at global sequence
    /// `start_seq`. Only a durable master can host a follower (the
    /// journal is both the durability and the position-tracking
    /// mechanism); the batch must continue exactly at the journal's
    /// durable head, else the follower and primary have diverged and the
    /// batch is refused. Returns the new durable head — the epoch the
    /// batch is acknowledged at.
    pub fn apply_replicated(
        &mut self,
        start_seq: u64,
        events: &[semex_journal::Event],
    ) -> Result<u64, JournalError> {
        match self {
            Master::Durable(d) => {
                let head = d.journal().next_seq();
                if start_seq != head {
                    return Err(JournalError::Invalid {
                        dir: d.journal().dir().to_path_buf(),
                        reason: format!(
                            "replicated batch starts at {start_seq} but the follower's \
                             durable head is {head}"
                        ),
                    });
                }
                d.apply_replicated(events)
            }
            Master::Ephemeral(_) => Err(JournalError::Invalid {
                dir: std::path::PathBuf::new(),
                reason: "an ephemeral master cannot follow a primary (no journal to \
                         track the replicated position)"
                    .into(),
            }),
        }
    }

    /// The epoch this master's snapshot engine should boot at: the
    /// journal's durable event sequence for a durable master (so epochs
    /// survive eviction and recovery), 0 for an ephemeral one.
    pub fn boot_epoch(&self) -> u64 {
        match self {
            Master::Durable(d) => d.journal().next_seq(),
            Master::Ephemeral(_) => 0,
        }
    }

    /// Clone the current state for publication.
    pub fn snapshot(&self) -> Snapshot {
        self.semex().snapshot()
    }

    /// Unwrap back to the durable platform, if this master is one (used by
    /// shutdown paths that want to compact or inspect the journal).
    pub fn into_durable(self) -> Option<DurableSemex> {
        match self {
            Master::Durable(d) => Some(d),
            Master::Ephemeral(_) => None,
        }
    }

    /// Unwrap to the plain platform, detaching any journal (its files stay
    /// valid on disk; everything committed so far is recoverable).
    pub fn into_semex(self) -> Semex {
        match self {
            Master::Durable(d) => d.into_inner(),
            Master::Ephemeral(s) => s,
        }
    }
}
