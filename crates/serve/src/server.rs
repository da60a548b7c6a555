//! The TCP front end: listener, worker pool, admission control, graceful
//! shutdown — now multi-tenant, serving every space in a
//! [`TenantPool`].
//!
//! Three admission valves keep the server responsive under load. The
//! listener pushes accepted connections into a bounded channel with
//! `try_send`; when the worker pool is saturated and the backlog full, the
//! connection is answered with a typed `overloaded` response and closed
//! instead of queueing unboundedly. Each tenant has a bounded in-flight
//! budget (one abusive tenant cannot occupy every worker), and each tenant
//! has a bounded write queue drained by the shared writer workers. Under
//! overload the server stays responsive and *says so* — it never stalls,
//! OOMs, or silently drops work — and the `overloaded` answer names which
//! valve shed the request.
//!
//! Requests address a tenant via the optional `tenant` field on the
//! request frame; an absent field means the `"default"` tenant, so
//! single-tenant clients from before multi-tenancy keep working
//! unchanged. Non-resident tenants are recovered from their journal
//! directory on first touch; idle ones are evicted when the pool exceeds
//! its memory budget.
//!
//! Shutdown: a `shutdown` request sets the stop flag and wakes the
//! listener with a self-connection. The listener stops accepting and hangs
//! up its queue; workers drain the connections already admitted (reads
//! keep being served), the writer workers reject still-queued unacked
//! writes with `shutting_down`, and every tenant is sealed (index flushed,
//! journal committed) before [`ServeHandle::join`] returns.

use crate::protocol::{
    read_request_frame_into, write_frame, write_response, write_response_into, CacheStatsWire,
    ErrorKindWire, FrameError, PathItemWire, Request, RequestFrame, Response, WireHit,
};
use crate::role::{CommitTap, ReplicaRole};
use crate::writer::{pool_worker, WriteCommand, WriteJob, WriterReport, WriterStats};
use semex_cache::{CacheKey, TenantCacheStats};
use semex_core::Semex;
use semex_query::exec::run_page;
use semex_query::join::JoinError;
use semex_query::{Cursor, CursorError, ExecConfig, PageError};
use semex_tenant::{
    EnqueueError, EpochSnapshot, PoolConfig, PoolReport, PoolSnapshot, Tenant, TenantError,
    TenantId, TenantPool, TenantRegistry,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Solution rows returned per pattern query (the uncapped total is still
/// reported).
const MAX_SOLUTION_ROWS: usize = 50;

/// Page-size ceiling for path queries; larger asks are clamped. The
/// reported `total` still counts the whole answer, and the cursor resumes
/// from wherever the clamped page ended.
const MAX_PATH_PAGE: usize = 500;

/// Serving-layer tunables: the TCP front end and the thread counts. The
/// tenant pool's own knobs — write-queue depth, batch size, read-cache and
/// memory budgets — are a [`PoolConfig`], passed beside this to [`serve`]
/// and [`serve_tenants`].
#[derive(Clone)]
pub struct ServeConfig {
    /// Worker threads executing requests (readers; writes are queued for
    /// the writer workers).
    pub threads: usize,
    /// Writer worker threads draining tenant write queues. Each tenant is
    /// serviced by at most one at a time; more threads let independent
    /// tenants commit in parallel.
    pub writer_threads: usize,
    /// Bound on the admitted-connection backlog; beyond it, connections
    /// are shed with `overloaded`.
    pub conn_queue: usize,
    /// Per-connection socket read timeout (an idle client is hung up on).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Record every applied [`WriteCommand`] in the report (test and
    /// verification harnesses replay them sequentially; meaningful for
    /// single-tenant servers only — cross-tenant order is arbitrary).
    pub record_writes: bool,
    /// Replication role. `None` (the default) is a standalone primary;
    /// [`ReplicaRole::follower`] makes this server a read replica —
    /// writes are refused with `not_primary`, reads beyond the role's lag
    /// bound with `stale_replica`, and a `promote` request flips it to
    /// primary through the role's handshake.
    pub role: Option<Arc<ReplicaRole>>,
    /// Commit-boundary hook for a replicating primary: called with the
    /// new durable head after every journal commit, *before* the client
    /// acks release. `None` acks as soon as the local commit is durable.
    pub commit_tap: Option<Arc<dyn CommitTap>>,
}

impl std::fmt::Debug for ServeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeConfig")
            .field("threads", &self.threads)
            .field("writer_threads", &self.writer_threads)
            .field("conn_queue", &self.conn_queue)
            .field("read_timeout", &self.read_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("record_writes", &self.record_writes)
            .field("role", &self.role)
            .field("commit_tap", &self.commit_tap.as_ref().map(|_| "<tap>"))
            .finish()
    }
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: 4,
            writer_threads: 2,
            conn_queue: 64,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            record_writes: false,
            role: None,
            commit_tap: None,
        }
    }
}

/// Shared request counters (all relaxed; they are metrics, not locks).
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    shed_connections: AtomicU64,
    shed_writes: AtomicU64,
}

/// What a serve session did, returned by [`ServeHandle::join`]: request
/// and shed counters, the writer's batching report, the pool's tenancy
/// report, and — for single-tenant servers — the master itself (so
/// callers can verify or keep using the final state).
#[derive(Debug)]
pub struct ServeReport {
    /// Requests executed (shed connections are not requests).
    pub requests: u64,
    /// Connections answered `overloaded` at the door.
    pub shed_connections: u64,
    /// Writes answered `overloaded` at a tenant's write queue.
    pub shed_writes: u64,
    /// The write path's report.
    pub writer: WriterReport,
    /// The tenant pool's lifetime report (activations, cold opens,
    /// evictions, peak residency).
    pub tenants: PoolReport,
    /// The master platform, final state, journal sealed. `Some` only for a
    /// server started with [`serve`] (whose single master is pinned);
    /// multi-tenant masters live and die inside the pool.
    pub master: Option<Semex>,
    /// Read-cache counters summed over every tenant; `None` when the
    /// server ran without a cache.
    pub cache: Option<TenantCacheStats>,
}

/// A running server. Keep it to shut the server down and reclaim the
/// master; dropping it without [`ServeHandle::join`] detaches the threads.
#[derive(Debug)]
pub struct ServeHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    pool: Arc<TenantPool<WriteJob>>,
    writer_stats: Arc<WriterStats>,
    listener: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    writers: Vec<JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live tenant-pool metrics (resident set, cold opens, evictions);
    /// cheap, safe to poll while serving.
    pub fn tenants(&self) -> PoolSnapshot {
        self.pool.snapshot_stats()
    }

    /// Forcibly evict a tenant now (operational hook). `false` when it is
    /// not resident, pinned, or currently busy.
    pub fn evict_tenant(&self, name: &str) -> bool {
        self.pool.evict_now(name)
    }

    /// A tenant's current published epoch, if it is resident.
    pub fn epoch_of(&self, name: &str) -> Option<u64> {
        self.pool.epoch_of(name)
    }

    /// A detachable handle the replication puller applies batches
    /// through. Cheap to clone; it stays valid while the server runs and
    /// reports shutdown afterward.
    pub fn replication_sink(&self) -> ReplicationSink {
        ReplicationSink {
            pool: Arc::clone(&self.pool),
            stop: Arc::clone(&self.stop),
        }
    }

    /// Begin graceful shutdown without a client: set the stop flag and
    /// wake the listener. Idempotent; [`ServeHandle::join`] calls it.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // The listener is parked in accept(); a throwaway connection wakes
        // it to observe the flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until a shutdown is requested — by a client's `shutdown`
    /// request or [`ServeHandle::shutdown`] from another thread — without
    /// initiating one. This is what a foreground server process parks on;
    /// [`ServeHandle::join`] alone would begin the shutdown itself.
    pub fn wait(&mut self) {
        // The listener thread exits exactly when the stop flag is set and
        // it has been woken, so joining it is the blocking wait.
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
    }

    /// Shut down (if not already begun), wait for every thread to finish,
    /// seal every tenant, and return the report. All threads are joined —
    /// none leak.
    pub fn join(mut self) -> ServeReport {
        self.shutdown();
        if let Some(listener) = self.listener.take() {
            let _ = listener.join();
        }
        // Connection workers first: every admitted request gets its
        // answer (the writer workers are still draining tenant queues).
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // No more request intake: close the dispatch channel so the
        // writer workers drain the backlog and exit.
        self.pool.close();
        for writer in self.writers.drain(..) {
            let _ = writer.join();
        }
        let cache_totals = self.pool.read_cache().map(|cache| cache.totals());
        let fin = self.pool.finalize();
        // Jobs that never reached a worker (shutdown raced their
        // dispatch) are rejected, not dropped — though their clients are
        // usually gone by now.
        for (_tenant, jobs) in fin.leftovers {
            for job in jobs {
                self.writer_stats.reject_shutting_down(job);
            }
        }
        ServeReport {
            requests: self.counters.requests.load(Ordering::Relaxed),
            shed_connections: self.counters.shed_connections.load(Ordering::Relaxed),
            shed_writes: self.counters.shed_writes.load(Ordering::Relaxed),
            writer: self.writer_stats.take_report(fin.final_epoch),
            tenants: fin.report,
            master: fin.pinned,
            cache: cache_totals,
        }
    }
}

/// The replication puller's write-path entry: applies replicated commit
/// batches to a tenant through the ordinary serialized write path (so
/// they interleave correctly with everything else the writer workers do)
/// and blocks for each ack. Obtained from
/// [`ServeHandle::replication_sink`].
#[derive(Clone)]
pub struct ReplicationSink {
    pool: Arc<TenantPool<WriteJob>>,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for ReplicationSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicationSink").finish_non_exhaustive()
    }
}

impl ReplicationSink {
    /// Apply one replicated commit batch to `tenant` and block for the
    /// ack. `events_json` is one serialized
    /// [`StoreEvent`](semex_store::StoreEvent) per element, as shipped on
    /// the wire; `start_seq` must equal the follower's durable head.
    /// Returns the follower's new durable head. A full write queue is
    /// waited out rather than shed — replication must never silently drop
    /// a batch — but shutdown aborts the wait.
    pub fn apply(
        &self,
        tenant: &str,
        start_seq: u64,
        events_json: Vec<String>,
    ) -> Result<u64, String> {
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut job = WriteJob {
            cmd: WriteCommand::Replicate {
                start_seq,
                events_json,
            },
            reply: reply_tx,
        };
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return Err("server is shutting down".into());
            }
            let handle = match self.pool.activate(tenant) {
                Ok(handle) => handle,
                Err(e) => return Err(e.to_string()),
            };
            match self.pool.enqueue(&handle, job) {
                Ok(()) => break,
                Err(EnqueueError::Full(bounced)) => {
                    job = bounced;
                    thread::sleep(Duration::from_millis(1));
                }
                Err(EnqueueError::Retired(bounced)) => job = bounced,
                Err(EnqueueError::ShuttingDown(_)) => return Err("server is shutting down".into()),
            }
        }
        match reply_rx.recv() {
            Ok(Response::Replicated { epoch }) => Ok(epoch),
            Ok(Response::Error { message, .. }) => Err(message),
            Ok(other) => Err(format!("unexpected replicate ack: {other:?}")),
            Err(_) => Err("writer worker hung up before acking the replicated batch".into()),
        }
    }

    /// A tenant's current published epoch, if it is resident.
    pub fn epoch_of(&self, tenant: &str) -> Option<u64> {
        self.pool.epoch_of(tenant)
    }
}

/// Start serving a single `master` on `addr` (e.g. `"127.0.0.1:0"` for an
/// ephemeral port) as the pinned `"default"` tenant. Spawns the listener,
/// `config.threads` connection workers, and `config.writer_threads` writer
/// workers, then returns immediately. The master is pinned — never evicted
/// — and handed back through [`ServeHandle::join`]. A master with a
/// journal serves durably (every acked write is committed); one without
/// serves from memory. `pool_config.queue_depth`, `max_batch` and
/// `cache_budget` govern its write queue and read cache.
pub fn serve(
    master: Semex,
    addr: impl ToSocketAddrs,
    config: ServeConfig,
    pool_config: PoolConfig,
) -> io::Result<ServeHandle> {
    let pool = Arc::new(TenantPool::single(master, pool_config));
    serve_pool(pool, addr, config)
}

/// Start serving every tenant under `registry`'s root on `addr`. Tenants
/// are activated lazily (recovered from their journal directories on first
/// request) and evicted LRU-first when the pool exceeds
/// `pool_config.memory_budget`. `pool_config.queue_depth` and `max_batch`
/// govern each tenant's write queue and `cache_budget` the shared read
/// cache; `config` governs the TCP front end and the thread counts.
pub fn serve_tenants(
    registry: TenantRegistry,
    addr: impl ToSocketAddrs,
    config: ServeConfig,
    pool_config: PoolConfig,
) -> io::Result<ServeHandle> {
    let pool = Arc::new(TenantPool::with_registry(registry, pool_config));
    serve_pool(pool, addr, config)
}

/// The shared bring-up behind [`serve`] and [`serve_tenants`].
fn serve_pool(
    pool: Arc<TenantPool<WriteJob>>,
    addr: impl ToSocketAddrs,
    config: ServeConfig,
) -> io::Result<ServeHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(Counters::default());
    let writer_stats = Arc::new(WriterStats::default());

    let mut writers = Vec::with_capacity(config.writer_threads.max(1));
    for i in 0..config.writer_threads.max(1) {
        let pool = Arc::clone(&pool);
        let stats = Arc::clone(&writer_stats);
        let stop = Arc::clone(&stop);
        let record = config.record_writes;
        let tap = config.commit_tap.clone();
        writers.push(
            thread::Builder::new()
                .name(format!("semex-serve-writer-{i}"))
                .spawn(move || pool_worker(pool, stats, stop, record, tap))?,
        );
    }

    // Connection queue: the read-side admission valve.
    let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(config.conn_queue.max(1));
    let conn_rx = Arc::new(Mutex::new(conn_rx));

    let path_threads = path_threads();
    let mut workers = Vec::with_capacity(config.threads.max(1));
    for i in 0..config.threads.max(1) {
        let ctx = WorkerCtx {
            conn_rx: Arc::clone(&conn_rx),
            pool: Arc::clone(&pool),
            stop: Arc::clone(&stop),
            counters: Arc::clone(&counters),
            addr,
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            role: config.role.clone(),
            path_threads,
        };
        workers.push(
            thread::Builder::new()
                .name(format!("semex-serve-worker-{i}"))
                .spawn(move || worker_loop(ctx))?,
        );
    }

    let listener_thread = {
        let stop = Arc::clone(&stop);
        let counters = Arc::clone(&counters);
        let write_timeout = config.write_timeout;
        thread::Builder::new()
            .name("semex-serve-listener".into())
            .spawn(move || listener_loop(listener, conn_tx, stop, counters, write_timeout))?
    };

    Ok(ServeHandle {
        addr,
        stop,
        counters,
        pool,
        writer_stats,
        listener: Some(listener_thread),
        workers,
        writers,
    })
}

fn listener_loop(
    listener: TcpListener,
    conn_tx: mpsc::SyncSender<TcpStream>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    write_timeout: Duration,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            // Woken to die (the accepted stream, if any, is the wake-up
            // connection or a client that raced shutdown; drop it).
            break;
        }
        let Ok(stream) = stream else { continue };
        match conn_tx.try_send(stream) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(mut stream)) => {
                // Admission control: answer at the door, don't queue.
                counters.shed_connections.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_write_timeout(Some(write_timeout));
                let _ = write_response(
                    &mut stream,
                    &Response::Overloaded {
                        queue: "connections".into(),
                    },
                );
            }
            Err(mpsc::TrySendError::Disconnected(_)) => break,
        }
    }
    // Dropping conn_tx lets workers drain the backlog and then exit.
}

struct WorkerCtx {
    conn_rx: Arc<Mutex<mpsc::Receiver<TcpStream>>>,
    pool: Arc<TenantPool<WriteJob>>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    addr: SocketAddr,
    read_timeout: Duration,
    write_timeout: Duration,
    role: Option<Arc<ReplicaRole>>,
    path_threads: usize,
}

fn worker_loop(ctx: WorkerCtx) {
    loop {
        // Hold the lock only to dequeue, never while serving.
        let stream = match ctx.conn_rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(stream) = stream else { return };
        serve_connection(&ctx, stream);
    }
}

fn serve_connection(ctx: &WorkerCtx, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(ctx.read_timeout));
    let _ = stream.set_write_timeout(Some(ctx.write_timeout));
    // Replies are a small length prefix plus a payload; without nodelay,
    // Nagle holds the second write for the peer's delayed ACK (~40 ms per
    // request-response turn).
    let _ = stream.set_nodelay(true);
    // Connection-owned frame buffers: the read payload and the response
    // encoding are each one allocation amortized over the connection's
    // lifetime, not one per frame.
    let mut read_buf = Vec::new();
    let mut encode_buf = String::new();
    loop {
        let frame = match read_request_frame_into(&mut stream, &mut read_buf) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean close
            Err(FrameError::UnsupportedVersion { v }) => {
                // The frame itself was well-formed — only the version is
                // foreign. Refuse it in a way the peer can act on and keep
                // the connection (framing is still in sync).
                let refused = Response::Error {
                    kind: ErrorKindWire::UnsupportedVersion,
                    message: FrameError::UnsupportedVersion { v }.to_string(),
                };
                if write_response_into(&mut stream, &refused, &mut encode_buf).is_err() {
                    return;
                }
                continue;
            }
            Err(e) => {
                // Timeouts are idle clients; everything else gets a typed
                // answer. Either way the stream may be desynced: hang up.
                if !e.is_timeout() {
                    let _ = write_response(
                        &mut stream,
                        &Response::Error {
                            kind: ErrorKindWire::BadRequest,
                            message: e.to_string(),
                        },
                    );
                }
                return;
            }
        };
        ctx.counters.requests.fetch_add(1, Ordering::Relaxed);
        let written = match execute(ctx, &frame) {
            Reply::Typed(response) => write_response_into(&mut stream, &response, &mut encode_buf),
            // A cached payload is already the encoded frame body: write it
            // verbatim, skipping the whole encode.
            Reply::Encoded(payload) => write_frame(&mut stream, &payload),
        };
        if written.is_err() {
            return;
        }
    }
}

fn shutting_down() -> Response {
    Response::Error {
        kind: ErrorKindWire::ShuttingDown,
        message: "server is shutting down; the write was not applied".into(),
    }
}

/// Map a tenant activation failure to its wire answer.
fn tenant_error(e: TenantError) -> Response {
    let kind = match &e {
        TenantError::InvalidId { .. } => ErrorKindWire::BadRequest,
        TenantError::Unknown(_) => ErrorKindWire::NotFound,
        TenantError::Journal(_) | TenantError::Io(_) => ErrorKindWire::Store,
        TenantError::ShuttingDown => ErrorKindWire::ShuttingDown,
    };
    Response::Error {
        kind,
        message: e.to_string(),
    }
}

/// What a request produces: a typed response to encode, or — on the cached
/// read path — the already-encoded frame body.
enum Reply {
    Typed(Response),
    Encoded(Arc<Vec<u8>>),
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply::Typed(response)
    }
}

/// The canonical cache key text for a cacheable read, `None` for
/// everything else. Cacheable reads are the pure snapshot functions;
/// `Stats` is excluded because its answer carries the live cache counters
/// themselves. Canonicalization is the protocol encoder: deterministic
/// field order and number formatting, so two frames that differ only in
/// JSON whitespace or key order share an entry.
fn canonical_read_key(at: &EpochSnapshot, request: &Request) -> Option<String> {
    match request {
        Request::Search { .. }
        | Request::Query { .. }
        | Request::View { .. }
        | Request::Browse { .. } => Some(request.to_json().encode()),
        // Path queries are keyed on the *canonical plan encoding*, not the
        // request text: two spellings that optimize to the same plan (extra
        // whitespace, reordered filters) share a cache entry. Unparsable
        // paths get no key — their typed error is computed (cheaply) each
        // time rather than occupying cache residency.
        Request::PathQuery { path, page, cursor } => {
            let plan = semex_query::parse::parse(at.snap.store(), path)
                .ok()?
                .optimize();
            let canon = plan.canonical(at.snap.store().model());
            let page = (*page).clamp(1, MAX_PATH_PAGE);
            let cursor = cursor.as_deref().unwrap_or("-");
            Some(format!("pathq {canon} page={page} cursor={cursor}"))
        }
        _ => None,
    }
}

fn execute(ctx: &WorkerCtx, frame: &RequestFrame) -> Reply {
    let name = frame.tenant.as_deref().unwrap_or(TenantId::DEFAULT);
    let request = &frame.request;
    if matches!(request, Request::Shutdown) {
        ctx.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(ctx.addr); // wake the listener
        return Response::ShutdownAck {
            epoch: ctx.pool.epoch_of(name).unwrap_or(0),
        }
        .into();
    }
    if matches!(request, Request::Promote) {
        // Promotion through the role's wait-for-durable-prefix handshake;
        // idempotent on a server that is already primary (including one
        // that never had a role), which answers its current epoch.
        let epoch = ctx
            .role
            .as_ref()
            .and_then(|role| role.promote())
            .unwrap_or_else(|| ctx.pool.epoch_of(name).unwrap_or(0));
        return Response::Promoted { epoch }.into();
    }
    let is_write = WriteCommand::from_request(request).is_some();
    if is_write && ctx.stop.load(Ordering::SeqCst) {
        return shutting_down().into();
    }
    if is_write {
        if let Some(role) = &ctx.role {
            if role.is_follower() {
                return Response::Error {
                    kind: ErrorKindWire::NotPrimary,
                    message: "this server is a read replica; send writes to the primary".into(),
                }
                .into();
            }
        }
    }
    let tenant = match ctx.pool.activate(name) {
        Ok(tenant) => tenant,
        Err(e) => return tenant_error(e).into(),
    };
    // Per-tenant admission: one flooding tenant saturates its own
    // in-flight budget and gets typed refusals, not the whole worker pool.
    let Some(_permit) = ctx.pool.admit(&tenant) else {
        return Response::Overloaded {
            queue: "tenant".into(),
        }
        .into();
    };
    if let Some(cmd) = WriteCommand::from_request(request) {
        return execute_write(ctx, name, tenant, cmd).into();
    }
    // Reads pin one epoch snapshot. With a cache, the epoch becomes part
    // of the key, so a cached answer is exactly what evaluating against
    // this snapshot would produce — a write publishes a new epoch and
    // thereby a new key, never a stale hit.
    let at = tenant.engine().load();
    // A follower bounds how stale an answer may be: reads past the lag
    // budget are refused with a typed error rather than silently served
    // old. `Stats` stays exempt — it is the observability endpoint an
    // operator uses to *watch* a replica catch up.
    if !matches!(request, Request::Stats) {
        if let Some(role) = &ctx.role {
            if role.is_follower() {
                let lag = role.lag(at.epoch);
                if lag > role.max_lag() {
                    return Response::Error {
                        kind: ErrorKindWire::StaleReplica,
                        message: format!(
                            "replica is {lag} events behind the primary (max lag {})",
                            role.max_lag()
                        ),
                    }
                    .into();
                }
            }
        }
    }
    match (ctx.pool.read_cache(), canonical_read_key(&at, request)) {
        (Some(cache), Some(canonical)) => {
            let key = CacheKey {
                tenant: name.to_string(),
                epoch: at.epoch,
                request: canonical,
            };
            // Misses on the same key coalesce: one worker evaluates,
            // concurrent identical readers wait on the flight and share
            // the encoded payload.
            Reply::Encoded(cache.get_or_compute(key, || {
                Arc::new(
                    execute_read(&at, request, None, ctx.path_threads)
                        .to_json()
                        .encode()
                        .into_bytes(),
                )
            }))
        }
        (cache, _) => {
            let cache_stats = match (cache, request) {
                (Some(cache), Request::Stats) => Some(wire_cache_stats(cache.stats_for(name))),
                _ => None,
            };
            execute_read(&at, request, cache_stats, ctx.path_threads).into()
        }
    }
}

fn wire_cache_stats(stats: TenantCacheStats) -> CacheStatsWire {
    CacheStatsWire {
        hits: stats.hits,
        misses: stats.misses,
        coalesced: stats.coalesced,
        evictions: stats.evictions,
        resident_bytes: stats.resident_bytes,
    }
}

/// Queue a write on its tenant and wait for the servicing worker's ack.
/// Eviction can race activation (the LRU scan may retire the tenant
/// between `activate` and `enqueue`); a retired queue bounces the job back
/// and we re-activate — bounded, because a tenant with a queued job is
/// never chosen for eviction again.
fn execute_write(
    ctx: &WorkerCtx,
    name: &str,
    tenant: Arc<Tenant<WriteJob>>,
    cmd: WriteCommand,
) -> Response {
    let (reply_tx, reply_rx) = mpsc::channel();
    let mut job = WriteJob {
        cmd,
        reply: reply_tx,
    };
    let mut tenant = tenant;
    for _attempt in 0..4 {
        match ctx.pool.enqueue(&tenant, job) {
            Ok(()) => {
                return reply_rx.recv().unwrap_or(Response::Error {
                    kind: ErrorKindWire::Internal,
                    message: "writer worker hung up before replying".into(),
                })
            }
            Err(EnqueueError::Full(_)) => {
                ctx.counters.shed_writes.fetch_add(1, Ordering::Relaxed);
                return Response::Overloaded {
                    queue: "writes".into(),
                };
            }
            Err(EnqueueError::Retired(bounced)) => {
                job = bounced;
                tenant = match ctx.pool.activate(name) {
                    Ok(tenant) => tenant,
                    Err(e) => return tenant_error(e),
                };
            }
            Err(EnqueueError::ShuttingDown(_)) => return shutting_down(),
        }
    }
    Response::Error {
        kind: ErrorKindWire::Internal,
        message: "tenant kept retiring during enqueue".into(),
    }
}

/// One top-1 search resolves the target object for both the `View` and
/// `Browse` arms, so each of those requests costs exactly one search.
fn top1(snap: &semex_core::Snapshot, query: &str) -> Option<semex_core::SearchResult> {
    snap.search(query, 1).into_iter().next()
}

/// Execute a read request against one pinned epoch. Every piece of the
/// answer comes from the same snapshot — store lookups, index scores, and
/// the reported `epoch` can never mix publication states. `cache_stats`
/// is this tenant's live cache counters, attached to the `Stats` answer
/// on cache-enabled servers. `path_threads` is the frontier-expansion
/// thread count for path queries (see [`path_threads`]).
fn execute_read(
    at: &EpochSnapshot,
    request: &Request,
    cache_stats: Option<CacheStatsWire>,
    path_threads: usize,
) -> Response {
    let (epoch, snap) = (at.epoch, &at.snap);
    match request {
        Request::Search {
            query,
            k,
            exhaustive,
        } => {
            let results = if *exhaustive {
                snap.search_exhaustive(query, *k)
            } else {
                snap.search(query, *k)
            };
            Response::Hits {
                epoch,
                hits: results
                    .into_iter()
                    .map(|r| WireHit {
                        object: r.object.0,
                        label: r.label,
                        class: r.class,
                        score: r.score,
                    })
                    .collect(),
            }
        }
        // Pattern queries evaluate on the path engine's traversal core
        // (`semex_query::join`) under its node budget. A malformed pattern
        // and an over-budget join are both a typed `invalid_query`.
        Request::Query { pattern } => match semex_query::join::query_str(snap.store(), pattern) {
            Ok(bindings) => Response::Solutions {
                epoch,
                total: bindings.len(),
                rows: bindings
                    .iter()
                    .take(MAX_SOLUTION_ROWS)
                    .map(|binding| {
                        let mut row: Vec<(String, String)> = binding
                            .iter()
                            .map(|(var, &obj)| (var.clone(), snap.store().label(obj)))
                            .collect();
                        row.sort();
                        row
                    })
                    .collect(),
            },
            Err(JoinError::Parse(e)) => invalid_query(format!("bad pattern query: {e}")),
            Err(JoinError::Budget(e)) => invalid_query(format!("query refused: {e}")),
        },
        Request::PathQuery { path, page, cursor } => {
            path_query(at, path, *page, cursor.as_deref(), path_threads)
        }
        Request::View { query } => match top1(snap, query) {
            Some(hit) => Response::View {
                epoch,
                object: hit.object.0,
                text: snap.view(hit.object).to_string(),
            },
            None => not_found(query),
        },
        Request::Browse { query } => match top1(snap, query) {
            Some(hit) => Response::Links {
                epoch,
                object: hit.object.0,
                label: hit.label,
                // Same traversal core as path queries.
                links: semex_query::summary::neighborhood_summary(snap.store(), hit.object),
            },
            None => not_found(query),
        },
        Request::Stats => {
            let stats = snap.stats();
            Response::Stats {
                epoch,
                objects: stats.objects,
                aliases: stats.aliases,
                edges: stats.edges,
                sources: stats.sources,
                cache: cache_stats,
            }
        }
        // Writes and shutdown are routed before this point.
        _ => Response::Error {
            kind: ErrorKindWire::Internal,
            message: "request routed to the read path by mistake".into(),
        },
    }
}

/// Evaluate a path query against one pinned snapshot: parse the path at
/// this snapshot's model, run the engine, slice one deterministic page.
/// Bad plans and malformed or plan-mismatched cursors answer
/// `invalid_query`; a cursor minted at a different epoch answers
/// `expired_cursor` — both keep the connection open, so a client can fix
/// the query (or restart the cursor) on the same socket.
fn path_query(
    at: &EpochSnapshot,
    path: &str,
    page: usize,
    cursor: Option<&str>,
    threads: usize,
) -> Response {
    let (epoch, snap) = (at.epoch, &at.snap);
    let store = snap.store();
    let plan = match semex_query::parse::parse(store, path) {
        Ok(plan) => plan.optimize(),
        Err(e) => return invalid_query(format!("bad path query: {e}")),
    };
    let after = match cursor {
        None => None,
        Some(token) => match Cursor::decode(token) {
            Ok(c) => Some(c),
            Err(e) => return invalid_query(format!("bad cursor: {e}")),
        },
    };
    let cfg = ExecConfig {
        threads,
        ..ExecConfig::default()
    };
    match run_page(
        store,
        &plan,
        &cfg,
        epoch,
        page.clamp(1, MAX_PATH_PAGE),
        after.as_ref(),
    ) {
        Ok(out) => Response::PathPage {
            epoch,
            total: out.total,
            items: out
                .items
                .iter()
                .map(|&obj| PathItemWire {
                    object: obj.0,
                    label: store.label(obj),
                    class: store.model().class_def(store.class_of(obj)).name.clone(),
                })
                .collect(),
            cursor: out.next.map(|c| c.encode()),
        },
        Err(PageError::Cursor(CursorError::Expired { cursor, current })) => Response::Error {
            kind: ErrorKindWire::ExpiredCursor,
            message: format!(
                "cursor pinned epoch {cursor} but the snapshot is at epoch {current}; \
                 restart the query to get fresh pages"
            ),
        },
        Err(PageError::Cursor(e)) => invalid_query(format!("bad cursor: {e}")),
        Err(PageError::Exec(e)) => invalid_query(format!("query refused: {e}")),
    }
}

/// Threads for one path query's frontier expansion. Results are identical
/// at any count, so this only trades latency against worker contention; a
/// small cap keeps one giant query from monopolizing the machine under
/// concurrent load. Reading the core count can mean reading cgroup files,
/// so the server asks once at start-up, not per query.
fn path_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

fn invalid_query(message: String) -> Response {
    Response::Error {
        kind: ErrorKindWire::InvalidQuery,
        message,
    }
}

fn not_found(query: &str) -> Response {
    Response::Error {
        kind: ErrorKindWire::NotFound,
        message: format!("no object matches {query:?}"),
    }
}
