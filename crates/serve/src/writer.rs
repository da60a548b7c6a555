//! The serialized write path: per-tenant single-writer servicing, batch
//! coalescing, one journal commit and one snapshot publication per batch.
//!
//! Every mutation funnels through its tenant's bounded queue in the
//! [`TenantPool`]; a small pool of writer workers drains whichever tenants
//! have work. The pool guarantees one worker per tenant at a time, so each
//! tenant still has a serialized write path, while independent tenants
//! commit in parallel. Within one servicing pass the batch is everything
//! already queued (up to `max_batch`): under write pressure a tenant's
//! queue naturally backs up while its previous batch commits, so N queued
//! writes cost **one** index refresh and **one** fsync instead of N —
//! without adding any artificial latency when the queue is idle.
//!
//! Acknowledgment order is the durability contract: apply → commit →
//! publish → reply. A client that has its ack (a) can read its own write
//! from the very next snapshot load, and (b) will find it after a crash
//! and [`semex_core::Semex::open_durable`] recovery — which is also what
//! makes tenant eviction safe. Jobs dequeued after shutdown began are
//! rejected with a typed `shutting_down` error — never silently dropped —
//! so a client always learns the fate of its write.

use crate::protocol::{ErrorKindWire, IngestFormat, Request, Response};
use crate::role::CommitTap;
use semex_core::{Semex, SemexError, SourceSpec};
use semex_store::ObjectId;
use semex_tenant::{SnapshotEngine, TenantPool};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// A mutation in queueable form. `Clone` so a recording server can return
/// the exact applied sequence for sequential-replay verification.
#[derive(Debug, Clone, PartialEq)]
pub enum WriteCommand {
    /// Ingest an inline source.
    Ingest {
        /// Source format.
        format: IngestFormat,
        /// Provenance name.
        name: String,
        /// The source text.
        content: String,
    },
    /// Integrate a CSV table.
    IntegrateCsv {
        /// Provenance name.
        name: String,
        /// The CSV text.
        csv: String,
    },
    /// Merge two objects on user say-so.
    AssertSame {
        /// One object id.
        a: u64,
        /// The other object id.
        b: u64,
    },
    /// Record a cannot-link constraint.
    AssertDistinct {
        /// One object id.
        a: u64,
        /// The other object id.
        b: u64,
    },
    /// Apply one replicated commit batch (follower mode only). Never
    /// built from a client request — the replication puller enqueues it
    /// directly, so replicated applies share the tenant's serialized
    /// write path with everything else.
    Replicate {
        /// Global sequence of the batch's first event; must equal the
        /// follower's durable head or the batch is refused as divergent.
        start_seq: u64,
        /// The batch's store events, one JSON document each (kept encoded
        /// so the command stays comparable and cheap to clone).
        events_json: Vec<String>,
    },
}

impl WriteCommand {
    /// Lift a write request into a command; `None` for read requests.
    pub fn from_request(req: &Request) -> Option<WriteCommand> {
        Some(match req {
            Request::Ingest {
                format,
                name,
                content,
            } => WriteCommand::Ingest {
                format: *format,
                name: name.clone(),
                content: content.clone(),
            },
            Request::IntegrateCsv { name, csv } => WriteCommand::IntegrateCsv {
                name: name.clone(),
                csv: csv.clone(),
            },
            Request::AssertSame { a, b } => WriteCommand::AssertSame { a: *a, b: *b },
            Request::AssertDistinct { a, b } => WriteCommand::AssertDistinct { a: *a, b: *b },
            _ => return None,
        })
    }

    /// Apply this command to a platform — the writer's path, and the
    /// sequential-replay oracle the concurrency tests compare the served
    /// state against. A replicated batch goes through the platform's
    /// journal-first [`Semex::apply_replicated`]. Returns the success
    /// response, its epoch 0 until the writer stamps in the epoch the
    /// write's batch is published under.
    pub fn apply(&self, semex: &mut Semex) -> Result<Response, Response> {
        match self {
            WriteCommand::Ingest {
                format,
                name,
                content,
            } => {
                let spec = match format {
                    IngestFormat::Mbox => SourceSpec::Mbox {
                        name: name.clone(),
                        content: content.clone(),
                    },
                    IngestFormat::Vcard => SourceSpec::Vcard {
                        name: name.clone(),
                        content: content.clone(),
                    },
                    IngestFormat::Bibtex => SourceSpec::Bibtex {
                        name: name.clone(),
                        content: content.clone(),
                    },
                    IngestFormat::Latex => SourceSpec::Latex {
                        name: name.clone(),
                        content: content.clone(),
                    },
                    IngestFormat::Ical => SourceSpec::Ical {
                        name: name.clone(),
                        content: content.clone(),
                    },
                };
                let stats = semex.ingest(spec).map_err(error_response)?;
                Ok(Response::Ingested {
                    epoch: 0,
                    records: stats.records,
                    objects: stats.objects,
                    triples: stats.triples,
                })
            }
            WriteCommand::IntegrateCsv { name, csv } => {
                match semex.integrate(name, csv).map_err(error_response)? {
                    Some((score, report)) => Ok(Response::Integrated {
                        epoch: 0,
                        matched: true,
                        score,
                        created: report.created,
                        merged: report.merged_into_existing,
                    }),
                    None => Ok(Response::Integrated {
                        epoch: 0,
                        matched: false,
                        score: 0.0,
                        created: 0,
                        merged: 0,
                    }),
                }
            }
            WriteCommand::AssertSame { a, b } => {
                let (a, b) = (check_object(semex, *a)?, check_object(semex, *b)?);
                let merges = semex.store().resolve(a) != semex.store().resolve(b);
                semex.assert_same(a, b).map_err(error_response)?;
                Ok(Response::Asserted {
                    epoch: 0,
                    merged: merges,
                })
            }
            WriteCommand::AssertDistinct { a, b } => {
                let (a, b) = (check_object(semex, *a)?, check_object(semex, *b)?);
                let accepted = semex.assert_distinct(a, b).map_err(error_response)?;
                Ok(Response::Asserted {
                    epoch: 0,
                    merged: accepted,
                })
            }
            WriteCommand::Replicate {
                start_seq,
                events_json,
            } => {
                let mut events = Vec::with_capacity(events_json.len());
                for json in events_json {
                    let event = serde_json::from_str(json).map_err(|e| Response::Error {
                        kind: ErrorKindWire::BadRequest,
                        message: format!("undecodable replicated event: {e}"),
                    })?;
                    events.push(event);
                }
                semex
                    .apply_replicated(*start_seq, &events)
                    .map(|_| Response::Replicated { epoch: 0 })
                    .map_err(|e| Response::Error {
                        kind: ErrorKindWire::Internal,
                        message: format!("replicated batch refused: {e}"),
                    })
            }
        }
    }
}

/// Stamp the epoch a write's batch was published under into its success
/// response.
fn stamp_epoch(response: &mut Response, published: u64) {
    if let Response::Ingested { epoch, .. }
    | Response::Integrated { epoch, .. }
    | Response::Asserted { epoch, .. }
    | Response::Replicated { epoch } = response
    {
        *epoch = published;
    }
}

fn check_object(semex: &Semex, id: u64) -> Result<ObjectId, Response> {
    if (id as usize) < semex.store().slot_count() {
        Ok(ObjectId(id))
    } else {
        Err(Response::Error {
            kind: ErrorKindWire::BadRequest,
            message: format!("no such object: {id}"),
        })
    }
}

fn error_response(e: SemexError) -> Response {
    let kind = match &e {
        SemexError::Extract { .. } => ErrorKindWire::Extract,
        SemexError::Store(_) => ErrorKindWire::Store,
        SemexError::Degraded { .. } => ErrorKindWire::Degraded,
    };
    Response::Error {
        kind,
        message: e.to_string(),
    }
}

/// One queued write: the command plus the channel its ack goes back on.
pub(crate) struct WriteJob {
    pub cmd: WriteCommand,
    pub reply: mpsc::Sender<Response>,
}

/// What the writer thread did, returned by
/// [`ServeHandle::join`](crate::ServeHandle::join).
#[derive(Debug, Default)]
pub struct WriterReport {
    /// Commit+publish cycles (each one index refresh and one fsync).
    pub batches: u64,
    /// Writes applied, committed, and acked with an epoch.
    pub writes_ok: u64,
    /// Writes that failed to apply or whose batch failed to commit.
    pub writes_failed: u64,
    /// Writes rejected with `shutting_down` after shutdown began.
    pub writes_rejected: u64,
    /// The final published epoch.
    pub final_epoch: u64,
    /// The applied commands in order, when the server was configured with
    /// `record_writes` (for sequential-replay verification).
    pub applied: Vec<WriteCommand>,
}

/// Shared write-path counters, incremented by every writer worker and
/// folded into the [`WriterReport`] at shutdown.
#[derive(Debug, Default)]
pub(crate) struct WriterStats {
    pub batches: AtomicU64,
    pub writes_ok: AtomicU64,
    pub writes_failed: AtomicU64,
    pub writes_rejected: AtomicU64,
    /// Applied commands in order, when recording (single-tenant pools
    /// only; cross-tenant order would be meaningless).
    pub applied: Mutex<Vec<WriteCommand>>,
}

impl WriterStats {
    /// Reject a job with the typed shutting-down error (used both by
    /// workers draining after shutdown and by finalize-time leftovers).
    pub fn reject_shutting_down(&self, job: WriteJob) {
        self.writes_rejected.fetch_add(1, Ordering::Relaxed);
        let _ = job.reply.send(Response::Error {
            kind: ErrorKindWire::ShuttingDown,
            message: "server is shutting down; the write was not applied".into(),
        });
    }

    /// Fold the counters into a report (the final epoch is supplied by the
    /// pool, which knows every tenant's sealed state).
    pub fn take_report(&self, final_epoch: u64) -> WriterReport {
        WriterReport {
            batches: self.batches.load(Ordering::Relaxed),
            writes_ok: self.writes_ok.load(Ordering::Relaxed),
            writes_failed: self.writes_failed.load(Ordering::Relaxed),
            writes_rejected: self.writes_rejected.load(Ordering::Relaxed),
            final_epoch,
            applied: std::mem::take(&mut self.applied.lock().expect("stats lock poisoned")),
        }
    }
}

/// A writer worker's body: service dispatched tenants until the pool
/// closes and the dispatch backlog drains.
pub(crate) fn pool_worker(
    pool: Arc<TenantPool<WriteJob>>,
    stats: Arc<WriterStats>,
    stop: Arc<AtomicBool>,
    record_writes: bool,
    tap: Option<Arc<dyn CommitTap>>,
) {
    while let Some(tenant) = pool.next_dispatch() {
        pool.service(&tenant, |master, engine, batch| {
            service_batch(
                master,
                engine,
                batch,
                &stats,
                &stop,
                record_writes,
                tap.as_deref(),
            );
        });
        // Publication bumps the tenant's cache generation: results keyed
        // on older epochs become sweepable dead weight. This only takes
        // the cache's epoch-map lock — a write never waits on the LRU.
        if let Some(cache) = pool.read_cache() {
            cache.note_epoch(tenant.id().as_str(), tenant.engine().epoch());
        }
    }
}

/// Apply, commit, publish, and ack one tenant's batch — the durability
/// contract lives here. Runs with exclusive access to the tenant's master
/// (the pool guarantees one servicing worker per tenant at a time).
fn service_batch(
    master: &mut Semex,
    engine: &SnapshotEngine,
    batch: Vec<WriteJob>,
    stats: &WriterStats,
    stop: &AtomicBool,
    record_writes: bool,
    tap: Option<&dyn CommitTap>,
) {
    let mut outcomes = Vec::with_capacity(batch.len());
    for job in batch {
        if stop.load(Ordering::SeqCst) {
            // Queued but unacked when shutdown began: reject, don't
            // drop — the client must learn its write did not happen.
            stats.reject_shutting_down(job);
            continue;
        }
        let outcome = job.cmd.apply(master);
        if record_writes && outcome.is_ok() && !matches!(job.cmd, WriteCommand::Replicate { .. }) {
            stats
                .applied
                .lock()
                .expect("stats lock poisoned")
                .push(job.cmd.clone());
        }
        outcomes.push((job.reply, outcome));
    }
    if outcomes.is_empty() {
        return;
    }
    stats.batches.fetch_add(1, Ordering::Relaxed);
    let committed = master.commit();
    // A replicating primary announces the new durable head to its hub
    // *before* any ack is released; the hub blocks until the synchronous
    // follower set has it. A tap failure withholds the acks below — the
    // batch is durable locally but the client never saw an ack, so losing
    // it in a failover breaks no promise.
    let tap_err = match (&committed, tap) {
        (Ok(n), Some(tap)) if *n > 0 => tap.on_commit(master.store().event_head()).err(),
        _ => None,
    };
    // Publish even on commit failure: readers must track the master's
    // in-memory state (which, degraded, still serves the un-durable
    // mutations — exactly the degraded-mode contract). The epoch is the
    // state's event head, so a changed state always carries a fresh one,
    // and a follower's epoch is the primary's at the same state.
    let epoch = engine.publish(master.snapshot());
    for (reply, outcome) in outcomes {
        let response = match (&committed, outcome) {
            (Ok(_), Ok(mut response)) => match &tap_err {
                None => {
                    stats.writes_ok.fetch_add(1, Ordering::Relaxed);
                    stamp_epoch(&mut response, epoch);
                    response
                }
                Some(err) => {
                    stats.writes_failed.fetch_add(1, Ordering::Relaxed);
                    Response::Error {
                        kind: ErrorKindWire::Degraded,
                        message: format!(
                            "write journaled locally but not acknowledged by the \
                             replica set: {err}"
                        ),
                    }
                }
            },
            (Err(e), Ok(_)) => {
                stats.writes_failed.fetch_add(1, Ordering::Relaxed);
                Response::Error {
                    kind: ErrorKindWire::Degraded,
                    message: format!("applied but not durable — journal commit failed: {e}"),
                }
            }
            (_, Err(error)) => {
                stats.writes_failed.fetch_add(1, Ordering::Relaxed);
                error
            }
        };
        let _ = reply.send(response);
    }
}
