//! The tenant pool: LRU activation and eviction of resident spaces under a
//! resident-memory budget, plus the shared write-dispatch machinery.
//!
//! A pool holds at most budget-many bytes (estimated — see
//! [`resident_cost`]) of resident tenants. A request for a non-resident
//! tenant recovers it from its journal directory (a *cold open*); when the
//! budget is exceeded, the least-recently-used idle tenant is *drained* —
//! batched index events flushed, journal committed, final snapshot
//! published — and dropped. Because every acked write was committed before
//! its ack, eviction never loses acknowledged data, and a reactivated
//! tenant serves byte-identical results and epochs.
//!
//! Writes are serialized **per tenant** but the pool is shared: each tenant
//! has a bounded job queue, and a tenant with queued jobs is dispatched to
//! exactly one pool worker at a time (`in_service`). One hot tenant can
//! therefore occupy at most one worker while its backlog sheds with typed
//! `overloaded` errors — it cannot starve the others.
//!
//! Lock order: the pool lock (`inner`) may take a tenant's `queue` lock;
//! `queue` holders never take `inner`. A tenant's `master` lock is never
//! acquired while holding `inner` (a worker holding `master` may briefly
//! take `inner` to update cost accounting).

use crate::engine::SnapshotEngine;
use crate::id::TenantId;
use crate::registry::TenantRegistry;
use crate::TenantError;
use semex_cache::{CacheConfig, ReadCache};
use semex_core::{JournalConfig, Semex, SemexConfig};
use semex_journal::JournalIo;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;

/// Pool tunables.
#[derive(Clone)]
pub struct PoolConfig {
    /// Resident-memory budget in estimated bytes (see [`resident_cost`]);
    /// `usize::MAX` disables eviction.
    pub memory_budget: usize,
    /// Bound on each tenant's write-job queue; beyond it, writes are shed.
    pub queue_depth: usize,
    /// Most jobs one [`TenantPool::service`] call drains into one batch.
    pub max_batch: usize,
    /// Cap on each tenant's concurrently executing requests; beyond it,
    /// requests are shed ([`TenantPool::admit`] returns `None`).
    pub max_inflight: usize,
    /// Whether activating a tenant with no journal directory provisions a
    /// fresh one (otherwise it is [`TenantError::Unknown`]).
    pub create_missing: bool,
    /// Platform configuration used for cold activations.
    pub semex: SemexConfig,
    /// Journal tunables used for cold activations.
    pub journal: JournalConfig,
    /// Journal I/O override for cold activations (fault injection and
    /// instrumentation; `None` uses the real filesystem).
    pub journal_io: Option<Arc<dyn JournalIo>>,
    /// Byte budget for the shared epoch-keyed read cache; `0` disables
    /// caching entirely. This budget is *in addition to* `memory_budget`
    /// (which bounds resident tenant state): the cache holds encoded
    /// response payloads, not snapshots, and is purged per tenant when
    /// the tenant itself is evicted.
    pub cache_budget: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            memory_budget: usize::MAX,
            queue_depth: 64,
            max_batch: 32,
            max_inflight: 256,
            create_missing: true,
            semex: SemexConfig::default(),
            journal: JournalConfig::default(),
            journal_io: None,
            cache_budget: 0,
        }
    }
}

impl fmt::Debug for PoolConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PoolConfig")
            .field("memory_budget", &self.memory_budget)
            .field("queue_depth", &self.queue_depth)
            .field("max_batch", &self.max_batch)
            .field("max_inflight", &self.max_inflight)
            .field("create_missing", &self.create_missing)
            .field("journal_io", &self.journal_io.is_some())
            .field("cache_budget", &self.cache_budget)
            .finish_non_exhaustive()
    }
}

/// Estimate one resident tenant's heap footprint in bytes, master plus its
/// currently published snapshot. The per-item constants were sized for a
/// snapshot that deep-copied the master; a published snapshot now shares
/// every chunk the master has not written since, so the estimate is a
/// conservative upper bound.
///
/// There is no allocator hook, so this is deliberately a coarse model over
/// store and index cardinalities — good enough to *bound* the resident set,
/// not to meter it. The budget comparison uses these estimates on both
/// sides, so the bound is self-consistent.
pub fn resident_cost(semex: &Semex) -> usize {
    const TENANT_OVERHEAD: usize = 64 << 10;
    const PER_SLOT: usize = 600;
    const PER_EDGE: usize = 120;
    const PER_TERM: usize = 160;
    const PER_DOC: usize = 64;
    let store = semex.store();
    let index = semex.index();
    TENANT_OVERHEAD
        + store.slot_count() * PER_SLOT
        + store.edge_count() * PER_EDGE
        + index.term_count() * PER_TERM
        + index.doc_count() * PER_DOC
}

/// Per-tenant job queue state. `in_service` marks the tenant as dispatched
/// to (at most one) pool worker; `retired` marks it evicted — set only
/// while the queue is empty and not in service, so no queued job is ever
/// dropped by eviction.
struct JobQueue<J> {
    jobs: VecDeque<J>,
    in_service: bool,
    retired: bool,
}

/// One resident tenant: its snapshot engine (readers), master (servicing
/// worker) and bounded job queue.
pub struct Tenant<J> {
    id: TenantId,
    engine: SnapshotEngine,
    master: Mutex<Option<Semex>>,
    queue: Mutex<JobQueue<J>>,
    inflight: AtomicUsize,
    cost: AtomicUsize,
    last_used: AtomicU64,
    pinned: bool,
}

impl<J> fmt::Debug for Tenant<J> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tenant")
            .field("id", &self.id)
            .field("epoch", &self.engine.epoch())
            .field("cost", &self.cost.load(Ordering::Relaxed))
            .field("pinned", &self.pinned)
            .finish_non_exhaustive()
    }
}

impl<J> Tenant<J> {
    fn new(id: TenantId, mut master: Semex, pinned: bool) -> Tenant<J> {
        master.set_index_batching(true);
        let engine = SnapshotEngine::new(master.snapshot());
        let cost = resident_cost(&master);
        Tenant {
            id,
            engine,
            master: Mutex::new(Some(master)),
            queue: Mutex::new(JobQueue {
                jobs: VecDeque::new(),
                in_service: false,
                retired: false,
            }),
            inflight: AtomicUsize::new(0),
            cost: AtomicUsize::new(cost),
            last_used: AtomicU64::new(0),
            pinned,
        }
    }

    /// The tenant's id.
    pub fn id(&self) -> &TenantId {
        &self.id
    }

    /// The tenant's snapshot engine (the read path).
    pub fn engine(&self) -> &SnapshotEngine {
        &self.engine
    }

    /// The tenant's current estimated resident bytes.
    pub fn cost(&self) -> usize {
        self.cost.load(Ordering::Relaxed)
    }
}

/// Holds one slot of a tenant's inflight-request budget; dropped when the
/// request finishes.
#[derive(Debug)]
pub struct InflightPermit<J> {
    tenant: Arc<Tenant<J>>,
}

impl<J> Drop for InflightPermit<J> {
    fn drop(&mut self) {
        self.tenant.inflight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Why [`TenantPool::enqueue`] refused a job (the job comes back).
#[derive(Debug)]
pub enum EnqueueError<J> {
    /// The tenant's bounded queue is full — admission control shed the
    /// write; the client should back off and retry.
    Full(J),
    /// The tenant was evicted between activation and enqueue; re-activate
    /// (recovering it from the journal) and retry.
    Retired(J),
    /// The pool is shutting down; the write was not applied.
    ShuttingDown(J),
}

/// A gate other activators of the same tenant wait on while one performs
/// the cold open (so a thundering herd costs one recovery, not N).
#[derive(Default)]
struct Gate {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut done = self.done.lock().expect("gate lock poisoned");
        while !*done {
            done = self.cv.wait(done).expect("gate lock poisoned");
        }
    }

    fn open(&self) {
        *self.done.lock().expect("gate lock poisoned") = true;
        self.cv.notify_all();
    }
}

struct PoolInner<J> {
    resident: HashMap<TenantId, Arc<Tenant<J>>>,
    opening: HashMap<TenantId, Arc<Gate>>,
    clock: u64,
    resident_bytes: usize,
    closed: bool,
}

#[derive(Default)]
struct PoolStats {
    activations: AtomicU64,
    cold_opens: AtomicU64,
    evictions: AtomicU64,
    shed_inflight: AtomicU64,
    max_resident_tenants: AtomicUsize,
    max_resident_bytes: AtomicUsize,
    cold_open_us: Mutex<Vec<u64>>,
}

/// A point-in-time view of the pool (live metrics; see
/// [`TenantPool::snapshot_stats`]).
#[derive(Debug, Clone)]
pub struct PoolSnapshot {
    /// Resident tenants right now.
    pub resident_tenants: usize,
    /// Estimated resident bytes right now.
    pub resident_bytes: usize,
    /// The configured budget.
    pub memory_budget: usize,
    /// Successful activations so far (warm hits + cold opens).
    pub activations: u64,
    /// Cold opens (journal recoveries) so far.
    pub cold_opens: u64,
    /// Evictions so far.
    pub evictions: u64,
    /// Requests shed by the per-tenant inflight cap so far.
    pub shed_inflight: u64,
}

/// What the pool did over its lifetime, returned by
/// [`TenantPool::finalize`].
#[derive(Debug, Clone, Default)]
pub struct PoolReport {
    /// Successful activations (warm hits + cold opens).
    pub activations: u64,
    /// Cold opens (journal recoveries).
    pub cold_opens: u64,
    /// Evictions (drain + drop).
    pub evictions: u64,
    /// Requests shed by the per-tenant inflight cap.
    pub shed_inflight: u64,
    /// Most tenants resident at once.
    pub max_resident_tenants: usize,
    /// Highest estimated resident bytes observed.
    pub max_resident_bytes: usize,
    /// Tenants resident when the pool was finalized.
    pub resident_at_close: usize,
    /// Each cold open's duration in microseconds, in completion order.
    pub cold_open_us: Vec<u64>,
}

/// Everything [`TenantPool::finalize`] hands back.
#[derive(Debug)]
pub struct PoolFinal<J> {
    /// Lifetime metrics.
    pub report: PoolReport,
    /// Jobs still queued at finalize (only possible if workers stopped
    /// before draining); the caller owes each a typed rejection.
    pub leftovers: Vec<(TenantId, Vec<J>)>,
    /// The pinned master of a [`TenantPool::single`] pool, journal sealed.
    pub pinned: Option<Semex>,
    /// The highest tenant epoch at finalize (the pinned tenant's, for a
    /// single-tenant pool).
    pub final_epoch: u64,
}

enum GatePlan {
    Wait(Arc<Gate>),
    Open(Arc<Gate>),
}

/// The pool itself, generic over the queued job type `J` (the serving
/// layer queues its write jobs; the pool never looks inside them).
pub struct TenantPool<J> {
    registry: Option<TenantRegistry>,
    config: PoolConfig,
    inner: Mutex<PoolInner<J>>,
    dispatch_tx: Mutex<Option<mpsc::Sender<Arc<Tenant<J>>>>>,
    dispatch_rx: Mutex<mpsc::Receiver<Arc<Tenant<J>>>>,
    stats: PoolStats,
    /// Shared epoch-keyed read cache (`None` when `cache_budget == 0`).
    /// One instance spans every tenant; a tenant's entries are purged when
    /// the tenant is evicted, and its epoch publications are recorded here
    /// so stale generations can be swept lazily.
    read_cache: Option<Arc<ReadCache>>,
}

impl<J> fmt::Debug for TenantPool<J> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snapshot = self.snapshot_stats();
        f.debug_struct("TenantPool")
            .field("registry", &self.registry)
            .field("config", &self.config)
            .field("resident", &snapshot.resident_tenants)
            .field("resident_bytes", &snapshot.resident_bytes)
            .finish_non_exhaustive()
    }
}

impl<J> TenantPool<J> {
    fn with_parts(registry: Option<TenantRegistry>, config: PoolConfig) -> TenantPool<J> {
        let (tx, rx) = mpsc::channel();
        let read_cache = (config.cache_budget > 0).then(|| {
            Arc::new(ReadCache::new(CacheConfig {
                budget_bytes: config.cache_budget,
                ..CacheConfig::default()
            }))
        });
        TenantPool {
            registry,
            config,
            inner: Mutex::new(PoolInner {
                resident: HashMap::new(),
                opening: HashMap::new(),
                clock: 0,
                resident_bytes: 0,
                closed: false,
            }),
            dispatch_tx: Mutex::new(Some(tx)),
            dispatch_rx: Mutex::new(rx),
            stats: PoolStats::default(),
            read_cache,
        }
    }

    /// A registry-backed pool: tenants are recovered from (and provisioned
    /// under) the registry root on demand.
    pub fn with_registry(registry: TenantRegistry, config: PoolConfig) -> TenantPool<J> {
        TenantPool::with_parts(Some(registry), config)
    }

    /// A single-tenant pool around an existing master, pinned as the
    /// `"default"` tenant: never evicted, handed back by
    /// [`TenantPool::finalize`]. Requests naming any other tenant get
    /// [`TenantError::Unknown`]. This is how the pre-tenancy serving API is
    /// expressed on top of the pool.
    pub fn single(master: Semex, config: PoolConfig) -> TenantPool<J> {
        let pool = TenantPool::with_parts(None, config);
        let tenant = Arc::new(Tenant::new(TenantId::default_tenant(), master, true));
        {
            let mut inner = pool.inner.lock().expect("pool lock poisoned");
            inner.resident_bytes = tenant.cost();
            inner.resident.insert(tenant.id.clone(), tenant);
        }
        pool.track_maxes();
        pool
    }

    /// The registry, if this pool has one.
    pub fn registry(&self) -> Option<&TenantRegistry> {
        self.registry.as_ref()
    }

    /// The pool configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// The shared read cache, when caching is enabled.
    pub fn read_cache(&self) -> Option<&Arc<ReadCache>> {
        self.read_cache.as_ref()
    }

    /// Resolve `name` to a resident tenant: a warm hit just bumps the LRU
    /// clock; a miss recovers the tenant from its journal directory (one
    /// recovery even under a thundering herd), evicting least-recently-used
    /// idle tenants first if the budget demands it.
    pub fn activate(&self, name: &str) -> Result<Arc<Tenant<J>>, TenantError> {
        let id = TenantId::new(name)?;
        loop {
            let plan = {
                let mut inner = self.inner.lock().expect("pool lock poisoned");
                if inner.closed {
                    return Err(TenantError::ShuttingDown);
                }
                inner.clock += 1;
                let clock = inner.clock;
                if let Some(tenant) = inner.resident.get(&id) {
                    tenant.last_used.store(clock, Ordering::Relaxed);
                    self.stats.activations.fetch_add(1, Ordering::Relaxed);
                    return Ok(Arc::clone(tenant));
                }
                match inner.opening.get(&id) {
                    Some(gate) => GatePlan::Wait(Arc::clone(gate)),
                    None => {
                        if self.registry.is_none() {
                            return Err(TenantError::Unknown(id.to_string()));
                        }
                        let gate = Arc::new(Gate::default());
                        inner.opening.insert(id.clone(), Arc::clone(&gate));
                        GatePlan::Open(gate)
                    }
                }
            };
            match plan {
                GatePlan::Wait(gate) => gate.wait(), // then re-check the map
                GatePlan::Open(gate) => {
                    // Make room first so the cold open doesn't overshoot.
                    self.evict_to_fit(Some(&id));
                    let opened = self.open_cold(&id);
                    let result = {
                        let mut inner = self.inner.lock().expect("pool lock poisoned");
                        inner.opening.remove(&id);
                        match opened {
                            Ok(tenant) if inner.closed => {
                                drop(inner);
                                self.drain_evicted(&tenant);
                                Err(TenantError::ShuttingDown)
                            }
                            Ok(tenant) => {
                                inner.clock += 1;
                                tenant.last_used.store(inner.clock, Ordering::Relaxed);
                                inner.resident_bytes += tenant.cost();
                                inner.resident.insert(id.clone(), Arc::clone(&tenant));
                                self.stats.activations.fetch_add(1, Ordering::Relaxed);
                                Ok(tenant)
                            }
                            Err(e) => Err(e),
                        }
                    };
                    gate.open();
                    if result.is_ok() {
                        self.track_maxes();
                        // The opened tenant itself may have tipped the pool
                        // over budget.
                        self.evict_to_fit(Some(&id));
                    }
                    return result;
                }
            }
        }
    }

    fn open_cold(&self, id: &TenantId) -> Result<Arc<Tenant<J>>, TenantError> {
        let registry = self.registry.as_ref().expect("cold open without registry");
        let dir = registry.dir(id);
        if !dir.is_dir() {
            if !self.config.create_missing {
                return Err(TenantError::Unknown(id.to_string()));
            }
            std::fs::create_dir_all(&dir).map_err(TenantError::Io)?;
        }
        let started = Instant::now();
        let opened = match &self.config.journal_io {
            Some(io) => Semex::open_durable_io(
                &dir,
                self.config.semex.clone(),
                self.config.journal.clone(),
                Arc::clone(io),
            ),
            None => Semex::open_durable_with(
                &dir,
                self.config.semex.clone(),
                self.config.journal.clone(),
            ),
        };
        let (durable, _recovery) = opened.map_err(TenantError::Journal)?;
        let tenant = Arc::new(Tenant::new(id.clone(), durable, false));
        self.stats.cold_opens.fetch_add(1, Ordering::Relaxed);
        self.stats
            .cold_open_us
            .lock()
            .expect("stats lock poisoned")
            .push(started.elapsed().as_micros() as u64);
        Ok(tenant)
    }

    /// Evict least-recently-used idle tenants until the pool fits its
    /// budget (or nothing evictable remains — pinned, in-service, queued-up
    /// and just-activated tenants are never victims, so the budget is a
    /// target, not a hard clamp).
    fn evict_to_fit(&self, exclude: Option<&TenantId>) {
        loop {
            let victim = {
                let mut inner = self.inner.lock().expect("pool lock poisoned");
                if inner.resident_bytes <= self.config.memory_budget {
                    return;
                }
                let mut best: Option<Arc<Tenant<J>>> = None;
                let mut best_used = u64::MAX;
                for tenant in inner.resident.values() {
                    if tenant.pinned || Some(&tenant.id) == exclude {
                        continue;
                    }
                    let used = tenant.last_used.load(Ordering::Relaxed);
                    if used >= best_used {
                        continue;
                    }
                    let queue = tenant.queue.lock().expect("queue lock poisoned");
                    if queue.in_service || !queue.jobs.is_empty() {
                        continue;
                    }
                    drop(queue);
                    best_used = used;
                    best = Some(Arc::clone(tenant));
                }
                let Some(victim) = best else { return };
                {
                    // Re-check under the queue lock and retire atomically:
                    // after this, enqueue refuses with `Retired` and the
                    // tenant can never pick up new work.
                    let mut queue = victim.queue.lock().expect("queue lock poisoned");
                    if queue.in_service || !queue.jobs.is_empty() {
                        continue; // became busy since the scan; rescan
                    }
                    queue.retired = true;
                }
                inner.resident.remove(&victim.id);
                inner.resident_bytes = inner.resident_bytes.saturating_sub(victim.cost());
                victim
            };
            self.drain_evicted(&victim);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drain an evicted tenant: flush batched index events and commit
    /// (usually a no-op — every acked batch already committed), publish the
    /// sealed state for any reader still holding the tenant, and drop the
    /// master. A degraded master's commit fails; its un-durable backlog is
    /// dropped with it, exactly the degraded-mode contract (those mutations
    /// were answered "applied but not durable").
    fn drain_evicted(&self, tenant: &Tenant<J>) {
        let mut guard = tenant.master.lock().expect("master lock poisoned");
        if let Some(master) = guard.as_mut() {
            if master.commit().is_ok_and(|n| n > 0) {
                tenant.engine.publish(master.snapshot());
            }
        }
        *guard = None;
        drop(guard);
        // The tenant's cached results go with it: reactivation starts
        // cold. (Entries are epoch-keyed and thus never *wrong* to keep,
        // but an evicted tenant should not hold cache budget hostage.)
        if let Some(cache) = &self.read_cache {
            cache.purge_tenant(tenant.id.as_str());
        }
    }

    /// Take one slot of the tenant's inflight budget, or `None` when the
    /// tenant is at its cap (the request should be shed with a typed
    /// `overloaded` answer). Drop the permit when the request finishes.
    pub fn admit(&self, tenant: &Arc<Tenant<J>>) -> Option<InflightPermit<J>> {
        let cap = self.config.max_inflight.max(1);
        let prev = tenant.inflight.fetch_add(1, Ordering::Relaxed);
        if prev >= cap {
            tenant.inflight.fetch_sub(1, Ordering::Relaxed);
            self.stats.shed_inflight.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        Some(InflightPermit {
            tenant: Arc::clone(tenant),
        })
    }

    /// Queue a job on a tenant and make sure a pool worker will service it.
    /// The queue is bounded ([`PoolConfig::queue_depth`]); a full queue
    /// sheds the job back to the caller.
    pub fn enqueue(&self, tenant: &Arc<Tenant<J>>, job: J) -> Result<(), EnqueueError<J>> {
        let dispatch = {
            let mut queue = tenant.queue.lock().expect("queue lock poisoned");
            if queue.retired {
                return Err(EnqueueError::Retired(job));
            }
            if queue.jobs.len() >= self.config.queue_depth.max(1) {
                return Err(EnqueueError::Full(job));
            }
            queue.jobs.push_back(job);
            if queue.in_service {
                false
            } else {
                queue.in_service = true;
                true
            }
        };
        if dispatch && !self.send_dispatch(Arc::clone(tenant)) {
            // The dispatch channel is closed: the pool is shutting down and
            // no worker will ever service this queue again. Undo the
            // enqueue so the caller can answer the client. (Shutdown closes
            // the channel only after request intake stops, so the job we
            // pop is the one we pushed.)
            let mut queue = tenant.queue.lock().expect("queue lock poisoned");
            queue.in_service = false;
            let job = queue.jobs.pop_back().expect("job pushed above");
            return Err(EnqueueError::ShuttingDown(job));
        }
        Ok(())
    }

    fn send_dispatch(&self, tenant: Arc<Tenant<J>>) -> bool {
        match &*self.dispatch_tx.lock().expect("dispatch lock poisoned") {
            Some(tx) => tx.send(tenant).is_ok(),
            None => false,
        }
    }

    /// Block until a tenant needs servicing; `None` when the pool has
    /// closed and every pending dispatch is drained (the worker should
    /// exit). Pool workers loop over this.
    pub fn next_dispatch(&self) -> Option<Arc<Tenant<J>>> {
        let rx = self.dispatch_rx.lock().ok()?;
        rx.recv().ok()
    }

    /// Service one dispatched tenant: drain up to [`PoolConfig::max_batch`]
    /// queued jobs and hand them — with exclusive access to the tenant's
    /// master [`Semex`] and its [`SnapshotEngine`] — to `f`. Afterwards the
    /// tenant's cost accounting is refreshed, the tenant is re-dispatched
    /// if more jobs arrived meanwhile, and the pool is re-fit to its
    /// budget.
    pub fn service<F>(&self, tenant: &Arc<Tenant<J>>, f: F)
    where
        F: FnOnce(&mut Semex, &SnapshotEngine, Vec<J>),
    {
        let mut guard = tenant.master.lock().expect("master lock poisoned");
        let batch: Vec<J> = {
            let mut queue = tenant.queue.lock().expect("queue lock poisoned");
            let take = queue.jobs.len().min(self.config.max_batch.max(1));
            queue.jobs.drain(..take).collect()
        };
        if let Some(master) = guard.as_mut() {
            if !batch.is_empty() {
                f(master, &tenant.engine, batch);
            }
            let cost = resident_cost(master);
            self.update_cost(tenant, cost);
        }
        drop(guard);
        let redispatch = {
            let mut queue = tenant.queue.lock().expect("queue lock poisoned");
            if queue.jobs.is_empty() {
                queue.in_service = false;
                false
            } else {
                true // keep in_service: this tenant goes around again
            }
        };
        if redispatch && !self.send_dispatch(Arc::clone(tenant)) {
            tenant.queue.lock().expect("queue lock poisoned").in_service = false;
            // closing; finalize rejects leftovers
        }
        self.evict_to_fit(Some(&tenant.id));
        self.track_maxes();
    }

    fn update_cost(&self, tenant: &Tenant<J>, new_cost: usize) {
        let mut inner = self.inner.lock().expect("pool lock poisoned");
        let old = tenant.cost.swap(new_cost, Ordering::Relaxed);
        if inner.resident.contains_key(&tenant.id) {
            inner.resident_bytes = inner.resident_bytes.saturating_sub(old) + new_cost;
        }
    }

    fn track_maxes(&self) {
        let (tenants, bytes) = {
            let inner = self.inner.lock().expect("pool lock poisoned");
            (inner.resident.len(), inner.resident_bytes)
        };
        self.stats
            .max_resident_tenants
            .fetch_max(tenants, Ordering::Relaxed);
        self.stats
            .max_resident_bytes
            .fetch_max(bytes, Ordering::Relaxed);
    }

    /// The current epoch of `name`, if it is resident.
    pub fn epoch_of(&self, name: &str) -> Option<u64> {
        let id = TenantId::new(name).ok()?;
        let inner = self.inner.lock().expect("pool lock poisoned");
        inner.resident.get(&id).map(|t| t.engine.epoch())
    }

    /// Forcibly evict `name` now (operational hook; also what the eviction
    /// tests use). Returns `false` when the tenant is not resident, pinned,
    /// or currently busy (in service or with queued jobs).
    pub fn evict_now(&self, name: &str) -> bool {
        let Ok(id) = TenantId::new(name) else {
            return false;
        };
        let victim = {
            let mut inner = self.inner.lock().expect("pool lock poisoned");
            let Some(tenant) = inner.resident.get(&id) else {
                return false;
            };
            if tenant.pinned {
                return false;
            }
            {
                let mut queue = tenant.queue.lock().expect("queue lock poisoned");
                if queue.in_service || !queue.jobs.is_empty() {
                    return false;
                }
                queue.retired = true;
            }
            let tenant = inner.resident.remove(&id).expect("checked above");
            inner.resident_bytes = inner.resident_bytes.saturating_sub(tenant.cost());
            tenant
        };
        self.drain_evicted(&victim);
        self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Live metrics (cheap; safe to poll).
    pub fn snapshot_stats(&self) -> PoolSnapshot {
        let (resident_tenants, resident_bytes) = {
            let inner = self.inner.lock().expect("pool lock poisoned");
            (inner.resident.len(), inner.resident_bytes)
        };
        PoolSnapshot {
            resident_tenants,
            resident_bytes,
            memory_budget: self.config.memory_budget,
            activations: self.stats.activations.load(Ordering::Relaxed),
            cold_opens: self.stats.cold_opens.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            shed_inflight: self.stats.shed_inflight.load(Ordering::Relaxed),
        }
    }

    /// Stop accepting activations and dispatches: the dispatch channel
    /// closes, so pool workers drain what is already queued and then see
    /// `None` from [`TenantPool::next_dispatch`]. Idempotent;
    /// [`TenantPool::finalize`] calls it.
    pub fn close(&self) {
        self.dispatch_tx
            .lock()
            .expect("dispatch lock poisoned")
            .take();
        self.inner.lock().expect("pool lock poisoned").closed = true;
    }

    /// Seal every resident tenant (leave index batching, commit, drop) and
    /// return the lifetime report, any jobs left unserviced, and the pinned
    /// master of a single-tenant pool. Call after the pool workers have
    /// exited.
    pub fn finalize(&self) -> PoolFinal<J> {
        self.close();
        let tenants: Vec<Arc<Tenant<J>>> = {
            let mut inner = self.inner.lock().expect("pool lock poisoned");
            inner.resident_bytes = 0;
            inner.resident.drain().map(|(_, t)| t).collect()
        };
        let resident_at_close = tenants.len();
        let mut leftovers = Vec::new();
        let mut pinned = None;
        let mut final_epoch = 0u64;
        for tenant in tenants {
            {
                let mut queue = tenant.queue.lock().expect("queue lock poisoned");
                queue.retired = true;
                let jobs: Vec<J> = queue.jobs.drain(..).collect();
                if !jobs.is_empty() {
                    leftovers.push((tenant.id.clone(), jobs));
                }
            }
            let mut guard = tenant.master.lock().expect("master lock poisoned");
            if let Some(mut master) = guard.take() {
                // Leaving batching mode is an implicit final flush; the
                // commit seals the journal at exactly the acked state.
                master.set_index_batching(false);
                let _ = master.commit();
                final_epoch = final_epoch.max(tenant.engine.epoch());
                if tenant.pinned {
                    pinned = Some(master);
                }
            }
        }
        let report = PoolReport {
            activations: self.stats.activations.load(Ordering::Relaxed),
            cold_opens: self.stats.cold_opens.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            shed_inflight: self.stats.shed_inflight.load(Ordering::Relaxed),
            max_resident_tenants: self.stats.max_resident_tenants.load(Ordering::Relaxed),
            max_resident_bytes: self.stats.max_resident_bytes.load(Ordering::Relaxed),
            resident_at_close,
            cold_open_us: std::mem::take(
                &mut *self.stats.cold_open_us.lock().expect("stats lock poisoned"),
            ),
        };
        PoolFinal {
            report,
            leftovers,
            pinned,
            final_epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_core::SourceSpec;

    fn temp_root(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("semex-pool-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        root
    }

    fn fast_journal() -> JournalConfig {
        JournalConfig {
            fsync: false,
            ..JournalConfig::default()
        }
    }

    fn seed(pool: &TenantPool<()>, name: &str, token: &str) {
        let tenant = pool.activate(name).unwrap();
        let mut guard = tenant.master.lock().unwrap();
        let master = guard.as_mut().unwrap();
        master
            .ingest(SourceSpec::Mbox {
                name: "inbox".into(),
                content: format!("From: {token}@example.com\nSubject: {token}\n\nbody"),
            })
            .unwrap();
        master.commit().unwrap();
        tenant.engine.publish(master.snapshot());
        drop(guard);
        pool.update_cost(
            &tenant,
            resident_cost(tenant.master.lock().unwrap().as_ref().unwrap()),
        );
    }

    #[test]
    fn activation_is_lazy_and_lru_eviction_respects_budget() {
        let root = temp_root("lru");
        let registry = TenantRegistry::open(&root).unwrap();
        let pool: TenantPool<()> = TenantPool::with_registry(
            registry,
            PoolConfig {
                journal: fast_journal(),
                ..PoolConfig::default()
            },
        );
        for (name, token) in [
            ("alice", "apples"),
            ("bob", "bananas"),
            ("carol", "cherries"),
        ] {
            seed(&pool, name, token);
        }
        assert_eq!(pool.snapshot_stats().resident_tenants, 3);
        assert_eq!(pool.snapshot_stats().cold_opens, 3);

        // Shrink the budget to roughly one tenant and touch alice last:
        // re-fitting must evict the least-recently-used tenants, not her.
        let one = pool.activate("alice").unwrap().cost();
        let pool = TenantPool::<()> {
            config: PoolConfig {
                memory_budget: one + one / 2,
                journal: fast_journal(),
                ..PoolConfig::default()
            },
            ..pool
        };
        pool.activate("bob").unwrap();
        pool.activate("carol").unwrap();
        pool.activate("alice").unwrap();
        pool.evict_to_fit(None);
        let stats = pool.snapshot_stats();
        assert!(stats.evictions >= 2, "evictions: {}", stats.evictions);
        assert!(stats.resident_bytes <= pool.config.memory_budget);
        // Alice (most recently used) survived.
        assert!(pool.epoch_of("alice").is_some());

        // Evicted tenants come back from their journals with identical
        // state and epochs.
        let (bob_epoch_before, bob_hits_before) = {
            let t = pool.activate("bob").unwrap();
            let snap = t.engine().load();
            let hits = snap.snap.search("bananas", 10);
            assert!(!hits.is_empty(), "seeded token must be searchable");
            (snap.epoch, hits)
        };
        assert!(pool.evict_now("bob"));
        let t = pool.activate("bob").unwrap();
        let snap = t.engine().load();
        assert_eq!(snap.epoch, bob_epoch_before, "epochs survive eviction");
        assert_eq!(
            snap.snap.search("bananas", 10),
            bob_hits_before,
            "results survive eviction"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn single_pool_pins_and_returns_the_master() {
        let semex = semex_core::SemexBuilder::new()
            .add_mbox("inbox", "From: a@b.c\nSubject: pinned\n\nhello")
            .build()
            .unwrap();
        let pool: TenantPool<()> = TenantPool::single(semex, PoolConfig::default());
        let tenant = pool.activate(TenantId::DEFAULT).unwrap();
        assert_eq!(tenant.engine().load().snap.search("pinned", 3).len(), 1);
        assert!(matches!(
            pool.activate("other"),
            Err(TenantError::Unknown(_))
        ));
        assert!(
            !pool.evict_now(TenantId::DEFAULT),
            "pinned is not evictable"
        );
        let fin = pool.finalize();
        assert!(fin.pinned.is_some(), "the pinned master is handed back");
        assert!(matches!(
            pool.activate(TenantId::DEFAULT),
            Err(TenantError::ShuttingDown)
        ));
    }

    #[test]
    fn enqueue_bounds_and_retired_signalling() {
        let root = temp_root("queue");
        let registry = TenantRegistry::open(&root).unwrap();
        let pool: TenantPool<u32> = TenantPool::with_registry(
            registry,
            PoolConfig {
                queue_depth: 2,
                journal: fast_journal(),
                ..PoolConfig::default()
            },
        );
        let tenant = pool.activate("dave").unwrap();
        pool.enqueue(&tenant, 1).unwrap();
        pool.enqueue(&tenant, 2).unwrap();
        assert!(matches!(
            pool.enqueue(&tenant, 3),
            Err(EnqueueError::Full(3))
        ));
        // Busy tenants are not evictable.
        assert!(!pool.evict_now("dave"));
        // A worker drains the queue; then eviction works and enqueue on the
        // stale handle reports Retired.
        let dispatched = pool.next_dispatch().unwrap();
        assert_eq!(dispatched.id().as_str(), "dave");
        pool.service(&dispatched, |_master, _engine, batch| {
            assert_eq!(batch, vec![1, 2]);
        });
        assert!(pool.evict_now("dave"));
        assert!(matches!(
            pool.enqueue(&tenant, 4),
            Err(EnqueueError::Retired(4))
        ));
        std::fs::remove_dir_all(&root).ok();
    }
}
