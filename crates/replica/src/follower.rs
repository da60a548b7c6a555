//! The follower side: bootstrap, the pull loop, and promotion.
//!
//! A follower bootstraps by asking the primary for the journal from
//! sequence 0; if the primary compacted past that, the first frame is a
//! snapshot, installed into the follower's (empty) journal directory with
//! [`semex_journal::install_snapshot`] — after which the ordinary
//! recovery path opens it like any other journal. From then on the
//! follower pulls sealed commit batches in lock-step, applies each
//! through its own journal-first write path (an [`ApplySink`]), and acks
//! its new durable head. Disconnects are retried with capped, jittered
//! exponential backoff; a typed [`ReplicaFrame::Diverged`] is fatal.
//!
//! Promotion is a wait-for-durable-prefix handshake: stop the pull loop,
//! finish applying the frame already in flight, and only then start
//! accepting writes — so every batch the old primary shipped (and
//! therefore every write it acked synchronously) is in the new primary.

use semex_serve::protocol::{
    read_replica_frame, write_replica_request, FrameError, ReplicaFrame, ReplicaRequest,
};
use semex_serve::{ReplicaRole, ReplicationSink};
use semex_store::Store;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Where a replicated batch lands on the follower. The serve stack's
/// implementation is [`ServeSink`]; tests drive a bare
/// journal-backed [`semex_core::Semex`] directly.
pub trait ApplySink: Send + Sync {
    /// The follower's durable head (next expected sequence).
    fn head(&self) -> u64;
    /// Apply one batch starting at `start_seq`; returns the new durable
    /// head. Must refuse a batch that does not continue the journal.
    fn apply(&self, start_seq: u64, events_json: Vec<String>) -> Result<u64, String>;
    /// Install a snapshot image mid-stream. Only meaningful for sinks
    /// whose journal is empty; the default refuses.
    fn install(&self, base_seq: u64, store_json: &str) -> Result<(), String> {
        let _ = (base_seq, store_json);
        Err("this follower cannot install a snapshot mid-stream".into())
    }
}

/// The serve-stack sink: batches go through the pool's serialized write
/// path, so replicated applies and reads coexist under the usual
/// snapshot-isolation rules.
#[derive(Debug, Clone)]
pub struct ServeSink {
    sink: ReplicationSink,
    tenant: String,
}

impl ServeSink {
    /// A sink applying to `tenant` through `sink`.
    pub fn new(sink: ReplicationSink, tenant: impl Into<String>) -> ServeSink {
        ServeSink {
            sink,
            tenant: tenant.into(),
        }
    }
}

impl ApplySink for ServeSink {
    fn head(&self) -> u64 {
        self.sink.epoch_of(&self.tenant).unwrap_or(0)
    }

    fn apply(&self, start_seq: u64, events_json: Vec<String>) -> Result<u64, String> {
        self.sink.apply(&self.tenant, start_seq, events_json)
    }
}

/// Reconnect policy for the pull loop: capped exponential backoff with
/// jitter, and a bound on consecutive failed connects.
#[derive(Debug, Clone)]
pub struct PullBackoff {
    /// Backoff before the first reconnect.
    pub base: Duration,
    /// Upper bound on any single backoff sleep.
    pub cap: Duration,
    /// Consecutive failed connects before the puller gives up (`None`
    /// retries forever — the production default; a follower outliving its
    /// primary is exactly the failover scenario).
    pub max_retries: Option<u32>,
}

impl Default for PullBackoff {
    fn default() -> PullBackoff {
        PullBackoff {
            base: Duration::from_millis(10),
            cap: Duration::from_secs(2),
            max_retries: None,
        }
    }
}

impl PullBackoff {
    /// The jittered sleep before retry `attempt` (0-based): a uniform-ish
    /// draw from the upper half of the capped exponential delay, the same
    /// no-RNG spread the serve client uses.
    fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << attempt.min(16));
        let delay = exp.min(self.cap);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0) as u64;
        let half = delay.as_nanos().max(2) as u64 / 2;
        Duration::from_nanos(half + nanos % half)
    }
}

/// How often the blocking frame read times out to poll the stop flag —
/// the bound on how long promotion waits for an idle stream.
const POLL_TIMEOUT: Duration = Duration::from_millis(100);

/// A running pull loop. Stop it with [`Puller::stop`] (graceful drain) or
/// promote through [`Puller::into_promote_hook`].
pub struct Puller {
    stop: Arc<AtomicBool>,
    sink: Arc<dyn ApplySink>,
    thread: Option<JoinHandle<Result<(), String>>>,
}

impl std::fmt::Debug for Puller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Puller")
            .field("stopped", &self.stop.load(Ordering::SeqCst))
            .finish_non_exhaustive()
    }
}

impl Puller {
    /// Start pulling from `primary` into `sink`, identifying as `name`.
    /// When `role` is given, every batch's announced head updates it (so
    /// the serving read path can enforce its lag bound).
    pub fn start(
        primary: SocketAddr,
        name: impl Into<String>,
        sink: Arc<dyn ApplySink>,
        role: Option<Arc<ReplicaRole>>,
        backoff: PullBackoff,
    ) -> io::Result<Puller> {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_sink = Arc::clone(&sink);
        let name = name.into();
        let thread = std::thread::Builder::new()
            .name("semex-replica-puller".into())
            .spawn(move || {
                pull_loop(
                    primary,
                    &name,
                    &thread_sink,
                    role.as_deref(),
                    &backoff,
                    &thread_stop,
                )
            })?;
        Ok(Puller {
            stop,
            sink,
            thread: Some(thread),
        })
    }

    /// Signal the pull loop to stop after the frame currently in flight.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Stop and join; the follower's final durable head, plus the loop's
    /// verdict (an `Err` is a divergence or local apply failure — the
    /// stream was already dead when the join happened).
    pub fn join(mut self) -> (u64, Result<(), String>) {
        self.stop();
        let verdict = match self.thread.take() {
            Some(thread) => thread
                .join()
                .unwrap_or_else(|_| Err("pull loop panicked".into())),
            None => Ok(()),
        };
        (self.sink.head(), verdict)
    }

    /// Package this puller as a [`ReplicaRole`] promotion hook: stop
    /// pulling, finish the in-flight frame, answer the final durable
    /// head. Install it with [`ReplicaRole::set_promote_hook`].
    pub fn into_promote_hook(self) -> Box<dyn FnOnce() -> u64 + Send> {
        Box::new(move || self.join().0)
    }
}

impl Drop for Puller {
    fn drop(&mut self) {
        self.stop();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn pull_loop(
    primary: SocketAddr,
    name: &str,
    sink: &Arc<dyn ApplySink>,
    role: Option<&ReplicaRole>,
    backoff: &PullBackoff,
    stop: &AtomicBool,
) -> Result<(), String> {
    let mut attempt = 0u32;
    while !stop.load(Ordering::SeqCst) {
        let stream = match connect(primary) {
            Ok(stream) => stream,
            Err(e) => {
                if let Some(max) = backoff.max_retries {
                    if attempt >= max {
                        return Err(format!("primary unreachable after {attempt} retries: {e}"));
                    }
                }
                interruptible_sleep(backoff.delay(attempt), stop);
                attempt = attempt.saturating_add(1);
                continue;
            }
        };
        attempt = 0;
        match pull_stream(stream, name, sink, role, stop) {
            StreamEnd::Fatal(e) => return Err(e),
            StreamEnd::Reconnect => {
                interruptible_sleep(backoff.delay(attempt), stop);
                attempt = attempt.saturating_add(1);
            }
            StreamEnd::Stopped => break,
        }
    }
    Ok(())
}

/// Why one connection's pull ended.
enum StreamEnd {
    /// Transient: disconnect, drain, timeout churn — reconnect.
    Reconnect,
    /// The stop flag: promotion or shutdown.
    Stopped,
    /// Divergence or a local apply failure; retrying cannot help.
    Fatal(String),
}

fn connect(primary: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&primary, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_TIMEOUT))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    Ok(stream)
}

fn interruptible_sleep(total: Duration, stop: &AtomicBool) {
    let start = std::time::Instant::now();
    while start.elapsed() < total && !stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5).min(total));
    }
}

fn pull_stream(
    mut stream: TcpStream,
    name: &str,
    sink: &Arc<dyn ApplySink>,
    role: Option<&ReplicaRole>,
    stop: &AtomicBool,
) -> StreamEnd {
    let hello = ReplicaRequest::Hello {
        follower: name.to_string(),
        have_seq: sink.head(),
        // By the time the pull loop runs, the follower holds a journal
        // (bootstrap installed one, or the directory already had state).
        fresh: false,
    };
    if write_replica_request(&mut stream, &hello).is_err() {
        return StreamEnd::Reconnect;
    }
    loop {
        if stop.load(Ordering::SeqCst) {
            return StreamEnd::Stopped;
        }
        let frame = match read_replica_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => return StreamEnd::Reconnect, // primary hung up
            Err(FrameError::Io(e)) if is_poll_timeout(&e) => continue,
            Err(_) => return StreamEnd::Reconnect,
        };
        match frame {
            ReplicaFrame::Snapshot {
                base_seq,
                store_json,
            } => {
                if let Err(e) = sink.install(base_seq, &store_json) {
                    return StreamEnd::Fatal(format!(
                        "primary shipped a snapshot at {base_seq} this follower cannot \
                         take: {e}"
                    ));
                }
            }
            ReplicaFrame::Batch {
                start_seq,
                head,
                events_json,
            } => {
                if let Some(role) = role {
                    role.note_primary_head(head);
                }
                let seq = match sink.apply(start_seq, events_json) {
                    Ok(seq) => seq,
                    Err(e) => {
                        if stop.load(Ordering::SeqCst) {
                            // Local shutdown raced the apply; not a
                            // replication failure.
                            return StreamEnd::Stopped;
                        }
                        return StreamEnd::Fatal(e);
                    }
                };
                if write_replica_request(&mut stream, &ReplicaRequest::Ack { seq }).is_err() {
                    return StreamEnd::Reconnect;
                }
            }
            ReplicaFrame::Diverged { reason } => {
                return StreamEnd::Fatal(format!("primary refused this follower: {reason}"))
            }
            ReplicaFrame::End { .. } => return StreamEnd::Reconnect,
        }
    }
}

fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// What [`bootstrap`] found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bootstrap {
    /// The directory already holds a journal; normal pull will catch up
    /// the tail.
    Existing,
    /// The primary's journal still starts at 0; nothing to install.
    FromScratch,
    /// A snapshot image was installed at this base sequence.
    Installed(u64),
}

/// Prepare `dir` to follow `primary`: if the directory holds no journal
/// yet ([`semex_journal::has_journal`]: no snapshot and no segment — the
/// temp file of a bootstrap killed mid-install is none), ask the primary
/// for the stream from 0 and install the snapshot frame, if one arrives,
/// with [`semex_journal::install_snapshot`]. After this, opening `dir`
/// through the ordinary recovery path yields a platform at the primary's
/// compacted base, and the pull loop ships the journal tail on top —
/// snapshot + tail catch-up, same as local recovery.
pub fn bootstrap(primary: SocketAddr, dir: &Path) -> Result<Bootstrap, String> {
    if semex_journal::has_journal(dir) {
        return Ok(Bootstrap::Existing);
    }
    let mut stream = TcpStream::connect_timeout(&primary, Duration::from_secs(5))
        .map_err(|e| format!("cannot reach primary {primary}: {e}"))?;
    // A primary with an empty journal has nothing to send a from-0 hello;
    // a bounded read distinguishes "nothing yet" from a dead primary.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(3)));
    let _ = stream.set_nodelay(true);
    write_replica_request(
        &mut stream,
        &ReplicaRequest::Hello {
            follower: "bootstrap".into(),
            have_seq: 0,
            // No journal here at all — the primary must lead with its
            // base snapshot even if that snapshot sits at sequence 0 (a
            // journal born from a pre-populated store keeps the whole
            // store there, where no batch can reproduce it).
            fresh: true,
        },
    )
    .map_err(|e| format!("bootstrap hello failed: {e}"))?;
    match read_replica_frame(&mut stream) {
        Ok(Some(ReplicaFrame::Snapshot {
            base_seq,
            store_json,
        })) => {
            let store = Store::from_json(&store_json)
                .map_err(|e| format!("primary shipped an undecodable snapshot: {e}"))?;
            semex_journal::install_snapshot(dir, base_seq, &store)
                .map_err(|e| format!("cannot install snapshot at {base_seq}: {e}"))?;
            Ok(Bootstrap::Installed(base_seq))
        }
        Ok(Some(ReplicaFrame::Batch { .. })) => Ok(Bootstrap::FromScratch),
        Ok(Some(ReplicaFrame::End { reason })) => Err(format!("primary is draining: {reason}")),
        Ok(Some(ReplicaFrame::Diverged { reason })) => {
            Err(format!("primary refused bootstrap: {reason}"))
        }
        Ok(None) => Err("primary hung up during bootstrap".into()),
        // Silence means the primary's journal is empty (or still entirely
        // un-compacted and idle): start from scratch, the pull loop will
        // ship whatever appears.
        Err(e) if e.is_timeout() => Ok(Bootstrap::FromScratch),
        Err(e) => Err(format!("bootstrap stream failed: {e}")),
    }
    // The probe connection drops here; the primary cleans it up and the
    // real pull loop reconnects with the installed position.
}
