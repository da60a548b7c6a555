//! Cluster-wide failure-point sweep: the replication analog of the
//! journal's `fault_sweep.rs`, run across a live primary → hub → follower
//! chain over real TCP.
//!
//! The scripted workload — open → commit → commit → compact → commit —
//! drives the primary's journal directly while a real [`ReplicationHub`]
//! ships it to a real [`Puller`]-driven follower, and every commit's
//! client ack is gated on the hub's [`CommitTap`], exactly like the serve
//! stack's write path. Two sweeps kill the primary at every point where a
//! real one can die:
//!
//! * **every journal I/O operation** (`FaultPlan::Crash { at }` on the
//!   primary's `FaultIo`; the hub exports through its own `RealIo`, so
//!   the op numbering is identical with or without replication attached);
//! * **every replication stream send** ([`SendGate`], which also fails
//!   the ack gate from that point on — a hub that cannot reach its
//!   follower set must not let client acks through).
//!
//! After each crash the follower is promoted (stop pulling, finish the
//! in-flight batch, read the final head) and the contract is asserted:
//!
//! * **no client-acked write is lost** — the promoted state contains
//!   every batch whose ack was released;
//! * **no unacked write leaks** — the hub only announces heads whose
//!   commit succeeded and only releases acks the follower confirmed, so
//!   the promoted state sits *exactly* on the last acked boundary;
//! * the promoted state is **byte-identical** to the primary's state at
//!   that epoch, and survives a fresh recovery of the follower's own
//!   journal byte-identically.

use semex_core::{Semex, SemexConfig};
use semex_journal::{recover_with_io, FaultIo, FaultPlan, JournalConfig, JournalIo};
use semex_model::names::{assoc, attr, class};
use semex_model::Value;
use semex_replica::{ApplySink, HubConfig, PullBackoff, Puller, ReplicationHub, SendGate};
use semex_serve::CommitTap;
use semex_store::{SourceInfo, SourceKind, Store, StoreEvent};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static SCRATCH_N: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH_N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("semex-cluster-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Sweep config: fsync on (sync ops are fault points too), no backoff
/// sleeping.
fn cfg() -> JournalConfig {
    JournalConfig {
        fsync: true,
        retry_backoff: Duration::ZERO,
        ..JournalConfig::default()
    }
}

/// The three event batches of the scripted workload, recorded once from a
/// live store so they replay deterministically (same workload as the
/// journal's own fault sweep).
fn batches() -> [Vec<StoreEvent>; 3] {
    let mut st = Store::with_builtin_model();
    st.enable_events();
    let person = st.model().class(class::PERSON).unwrap();
    let publication = st.model().class(class::PUBLICATION).unwrap();
    let authored = st.model().assoc(assoc::AUTHORED_BY).unwrap();
    let name = st.model().attr(attr::NAME).unwrap();
    let title = st.model().attr(attr::TITLE).unwrap();
    let email = st.model().attr(attr::EMAIL).unwrap();

    let src = st.register_source(SourceInfo::new("inbox", SourceKind::Synthetic));
    let ann = st.add_object(person);
    let smith = st.add_object(person);
    st.add_attr(ann, name, Value::from("Ann Smith")).unwrap();
    st.add_attr(smith, name, Value::from("A. Smith")).unwrap();
    let batch1 = st.take_events();

    let paper = st.add_object(publication);
    st.add_attr(paper, title, Value::from("On Journals"))
        .unwrap();
    st.add_triple(paper, authored, smith, src).unwrap();
    let batch2 = st.take_events();

    st.merge(ann, smith).unwrap();
    st.add_attr(ann, email, Value::from("ann@example.org"))
        .unwrap();
    let batch3 = st.take_events();

    assert!(!batch1.is_empty() && !batch2.is_empty() && !batch3.is_empty());
    [batch1, batch2, batch3]
}

/// Boundary states (as snapshot JSON) after 0, 1, 2, 3 acked batches.
fn boundary_states() -> [String; 4] {
    let b = batches();
    let mut st = Store::with_builtin_model();
    let mut states = vec![st.to_json().unwrap()];
    for batch in &b {
        for e in batch {
            st.apply_event(e).unwrap();
        }
        states.push(st.to_json().unwrap());
    }
    states.try_into().unwrap()
}

/// The journal sequence at each commit boundary (0, then cumulative
/// event counts) — what the follower's durable head must be when exactly
/// that many batches are acked.
fn boundary_seqs() -> [u64; 4] {
    let b = batches();
    let mut seqs = vec![0u64];
    let mut seq = 0u64;
    for batch in &b {
        seq += batch.len() as u64;
        seqs.push(seq);
    }
    seqs.try_into().unwrap()
}

/// The follower under test: a real durable master (journal-first apply
/// through [`Semex::apply_replicated`], the same path the serve sink
/// uses) behind the [`ApplySink`] interface the puller drives.
struct MasterSink {
    master: Mutex<Semex>,
}

impl MasterSink {
    fn open(dir: &Path) -> Arc<MasterSink> {
        let (durable, report) = Semex::open_durable_with(dir, SemexConfig::default(), cfg())
            .expect("open follower journal");
        assert!(report.damage.is_none(), "follower open: {report:?}");
        Arc::new(MasterSink {
            master: Mutex::new(durable),
        })
    }

    fn store_json(&self) -> String {
        self.master.lock().unwrap().store().to_json().unwrap()
    }
}

impl ApplySink for MasterSink {
    fn head(&self) -> u64 {
        self.master.lock().unwrap().journal().unwrap().next_seq()
    }

    fn apply(&self, start_seq: u64, events_json: Vec<String>) -> Result<u64, String> {
        let mut events = Vec::with_capacity(events_json.len());
        for json in &events_json {
            let event: StoreEvent = serde_json::from_str(json).map_err(|e| e.to_string())?;
            events.push(event);
        }
        self.master
            .lock()
            .unwrap()
            .apply_replicated(start_seq, &events)
            .map_err(|e| e.to_string())
    }
}

struct ClusterRun {
    /// Batches whose client ack was released (commit ok AND the hub's
    /// ack gate passed).
    acked: usize,
    /// Batches whose append was attempted.
    attempted: usize,
    /// At least one commit had its ack withheld by the tap.
    ack_withheld: bool,
    /// The promoted follower's durable head.
    follower_head: u64,
    /// The promoted follower's store, as snapshot JSON.
    follower_json: String,
    /// The same, after a fresh recovery of the follower's journal.
    reopened_json: String,
}

/// One full cluster lifetime: primary journal (under `io`), hub, live
/// follower, scripted workload with tap-gated acks, then promotion.
fn run_cluster(io: Arc<dyn JournalIo>, gate: Option<Arc<SendGate>>) -> ClusterRun {
    let primary_dir = scratch("primary");
    let follower_dir = scratch("follower");
    let b = batches();

    // The primary's journal under the fault plan. A crash during open
    // means the primary never came up; the hub still starts (head 0) so
    // the follower path is exercised uniformly.
    let journal = recover_with_io(&primary_dir, cfg(), io.clone())
        .ok()
        .map(|(_, j, _)| j);
    let boot_head = journal.as_ref().map_or(0, |j| j.next_seq());

    let hub = ReplicationHub::start(
        primary_dir.clone(),
        "127.0.0.1:0",
        boot_head,
        HubConfig {
            // Generous: must never evict the healthy follower, or an
            // "acked" write could legitimately be missing from it — the
            // exactly-on-the-acked-boundary assertions would catch that.
            ack_timeout: Duration::from_secs(10),
            io_timeout: Duration::from_secs(5),
            send_gate: gate,
        },
    )
    .expect("start hub");

    let sink = MasterSink::open(&follower_dir);
    let puller = Puller::start(
        hub.addr(),
        "f1",
        Arc::clone(&sink) as Arc<dyn ApplySink>,
        None,
        PullBackoff {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            max_retries: None,
        },
    )
    .expect("start puller");

    // The no-lost-acks guarantee covers writes acked while the follower
    // is in the synchronous set; admit it before the workload starts.
    assert!(
        hub.wait_for_follower("f1", Duration::from_secs(5)),
        "follower never joined the synchronous set"
    );

    let mut run = ClusterRun {
        acked: 0,
        attempted: 0,
        ack_withheld: false,
        follower_head: 0,
        follower_json: String::new(),
        reopened_json: String::new(),
    };

    if let Some(mut j) = journal {
        let mut mirror = Store::with_builtin_model();
        for (i, events) in b.iter().enumerate() {
            run.attempted = i + 1;
            // The serve write path's contract: apply → journal commit →
            // commit tap → client ack.
            if j.append_commit(events).is_err() {
                break;
            }
            for e in events {
                mirror.apply_event(e).unwrap();
            }
            match hub.on_commit(j.next_seq()) {
                Ok(()) => run.acked = i + 1,
                Err(_) => {
                    run.ack_withheld = true;
                    break;
                }
            }
            // Compact between batch 2 and 3: compaction ops are crash
            // points too, and a mid-stream snapshot must not confuse the
            // exporter. A failed compaction leaves the journal usable.
            if i == 1 {
                let _ = j.compact(&mirror);
            }
        }
    }

    // Promote: stop pulling, let the in-flight frame finish applying,
    // read the final durable head.
    let (head, verdict) = puller.join();
    verdict.expect("pull loop died fatally");
    run.follower_head = head;

    let sink = Arc::try_unwrap(sink)
        .ok()
        .expect("puller still holds the sink");
    run.follower_json = sink.store_json();
    drop(sink);
    hub.shutdown();

    // The promoted follower's journal is an ordinary journal: a fresh
    // recovery must reproduce the same state byte-identically.
    let (durable, report) = Semex::open_durable_with(&follower_dir, SemexConfig::default(), cfg())
        .expect("reopen promoted follower");
    assert!(report.damage.is_none(), "promoted follower: {report:?}");
    assert_eq!(durable.journal().unwrap().next_seq(), run.follower_head);
    let (durable, _) = Semex::open_durable_with(&follower_dir, SemexConfig::default(), cfg())
        .expect("reopen promoted follower twice");
    run.reopened_json = durable.store().to_json().unwrap();

    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
    run
}

/// Assert the promoted follower sits exactly on the last acked commit
/// boundary, byte-identical to the primary's state there, and that its
/// own journal recovers to the same bytes.
fn assert_on_acked_boundary(run: &ClusterRun, what: &str) {
    let boundaries = boundary_states();
    let seqs = boundary_seqs();
    assert!(run.acked <= run.attempted, "{what}: ack without attempt");
    assert_eq!(
        run.follower_head, seqs[run.acked],
        "{what}: promoted head is not the acked boundary (acked {}, attempted {})",
        run.acked, run.attempted
    );
    assert_eq!(
        run.follower_json, boundaries[run.acked],
        "{what}: promoted state diverges from the primary at epoch {}",
        run.follower_head
    );
    assert_eq!(
        run.reopened_json, run.follower_json,
        "{what}: follower journal does not recover byte-identically"
    );
}

#[test]
fn cluster_fault_free_follower_matches_primary_exactly() {
    let io = FaultIo::new(FaultPlan::None);
    let run = run_cluster(Arc::new(io), None);
    assert_eq!((run.acked, run.attempted), (3, 3));
    assert!(!run.ack_withheld);
    assert_on_acked_boundary(&run, "fault-free");
}

#[test]
fn late_follower_bootstraps_from_snapshot_and_tails_the_journal() {
    // A primary whose journal was compacted past the early batches: a
    // brand-new follower cannot replay from 0 and must take the snapshot
    // frame, then tail the remaining journal.
    let primary_dir = scratch("late");
    let b = batches();
    let io: Arc<dyn JournalIo> = Arc::new(FaultIo::new(FaultPlan::None));
    let (_, mut j, _) = recover_with_io(&primary_dir, cfg(), io).unwrap();
    let mut mirror = Store::with_builtin_model();
    for (i, events) in b.iter().enumerate() {
        j.append_commit(events).unwrap();
        for e in events {
            mirror.apply_event(e).unwrap();
        }
        if i == 1 {
            j.compact(&mirror).unwrap();
        }
    }
    let head = j.next_seq();
    let hub = ReplicationHub::start(
        primary_dir.clone(),
        "127.0.0.1:0",
        head,
        HubConfig::default(),
    )
    .unwrap();

    let follower_dir = scratch("late-f");
    let base = boundary_seqs()[2];
    assert_eq!(
        semex_replica::bootstrap(hub.addr(), &follower_dir).unwrap(),
        semex_replica::Bootstrap::Installed(base),
        "bootstrap must install the compaction snapshot"
    );
    let sink = MasterSink::open(&follower_dir);
    assert_eq!(
        sink.head(),
        base,
        "installed snapshot sets the durable head"
    );

    let puller = Puller::start(
        hub.addr(),
        "late",
        Arc::clone(&sink) as Arc<dyn ApplySink>,
        None,
        PullBackoff {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(50),
            max_retries: None,
        },
    )
    .unwrap();
    assert!(
        hub.wait_for_ack("late", head, Duration::from_secs(5)),
        "late follower never tailed to head {head}"
    );
    let (final_head, verdict) = puller.join();
    verdict.expect("pull loop died fatally");
    assert_eq!(final_head, head);

    let sink = Arc::try_unwrap(sink).ok().expect("sink still shared");
    assert_eq!(
        sink.store_json(),
        boundary_states()[3],
        "snapshot + tail must reproduce the primary byte-identically"
    );
    hub.shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&follower_dir).ok();
}

#[test]
fn cluster_sweep_crash_at_every_journal_op_loses_no_acked_write() {
    // Calibration: count the workload's journal ops fault-free. The hub
    // exports through its own RealIo, so attaching replication does not
    // perturb the primary's op numbering.
    let io = FaultIo::new(FaultPlan::None);
    let cal = run_cluster(Arc::new(io.clone()), None);
    assert_eq!(cal.acked, 3, "calibration run must fully ack");
    let total_ops = io.op_count();
    assert!(
        total_ops > 20,
        "workload too small to be a meaningful sweep ({total_ops} ops)"
    );

    for at in 0..total_ops {
        let io = FaultIo::new(FaultPlan::Crash { at });
        let run = run_cluster(Arc::new(io), None);
        assert_on_acked_boundary(&run, &format!("primary crash at journal op {at}"));
    }
    println!("cluster sweep [journal crash]: {total_ops} promotions verified");
}

#[test]
fn cluster_sweep_crash_at_every_send_point_withholds_unreplicated_acks() {
    // Calibration: count stream sends fault-free (batch frames plus the
    // drain-time End frame).
    let gate = SendGate::new(u64::MAX);
    let cal = run_cluster(
        Arc::new(FaultIo::new(FaultPlan::None)),
        Some(Arc::clone(&gate)),
    );
    assert_eq!(cal.acked, 3, "calibration run must fully ack");
    let total_sends = gate.sends();
    assert!(
        total_sends >= 3,
        "expected at least one send per batch ({total_sends} sends)"
    );

    for at in 0..total_sends {
        let gate = SendGate::new(at);
        let run = run_cluster(Arc::new(FaultIo::new(FaultPlan::None)), Some(gate));
        // A send crash before the last batch acked must have withheld a
        // client ack (the hub cannot reach its follower set); a crash on
        // a post-workload frame (drain) withholds nothing.
        if run.acked < 3 {
            assert!(
                run.ack_withheld,
                "send crash at {at}: a commit the follower never got was acked"
            );
        }
        assert_on_acked_boundary(&run, &format!("primary crash at stream send {at}"));
    }
    println!("cluster sweep [send crash]: {total_sends} promotions verified");
}
