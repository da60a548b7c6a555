//! End-to-end replication over full serve stacks: a primary with a
//! replication hub tapping its write path, followers stood up with
//! [`follow`] (bootstrap → recover → serve → pull), and real clients on
//! every node. Covers catch-up with byte-identical reads, the typed
//! follower errors (`not_primary`, `stale_replica`), graceful drain of
//! both roles, over-the-wire promotion after primary loss, and the
//! puller's capped-backoff reconnect when the primary appears late.

use semex_core::{Semex, SemexBuilder, SemexConfig};
use semex_journal::{recover_with_io, FaultIo, FaultPlan, JournalConfig};
use semex_replica::{follow, replicate, ApplySink, Follower, HubConfig, PullBackoff, Puller};
use semex_serve::protocol::{ErrorKindWire, IngestFormat, Request, Response};
use semex_serve::{serve, Client, PoolConfig, ServeConfig, TenantId};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

static SCRATCH_N: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let n = SCRATCH_N.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("semex-e2e-{tag}-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

const BIB: &str = "@inproceedings{d5, title={Reference Reconciliation in Complex Spaces}, \
                   author={Dong, Xin and Halevy, Alon}, booktitle={SIGMOD}, year=2005}";

struct Cluster {
    primary: semex_serve::ServeHandle,
    hub: Arc<semex_replica::ReplicationHub>,
    followers: Vec<Follower>,
    dirs: Vec<PathBuf>,
}

/// A durable primary with a hub on an ephemeral port, plus `n` followers
/// already admitted to the synchronous set (so every ack from here on is
/// replication-durable).
fn cluster(tag: &str, n: usize, max_lag: u64) -> Cluster {
    let primary_dir = scratch(&format!("{tag}-primary"));
    let (durable, _) = Semex::open_durable(&primary_dir, SemexConfig::default()).unwrap();
    let master = durable;
    let mut config = ServeConfig::default();
    let hub = replicate(
        &primary_dir,
        master.journal().unwrap().next_seq(),
        "127.0.0.1:0",
        &mut config,
        HubConfig {
            ack_timeout: Duration::from_secs(10),
            ..HubConfig::default()
        },
    )
    .unwrap();
    let primary = serve(master, "127.0.0.1:0", config, PoolConfig::default()).unwrap();

    let mut followers = Vec::new();
    let mut dirs = vec![primary_dir];
    for i in 0..n {
        let dir = scratch(&format!("{tag}-f{i}"));
        let follower = follow(
            hub.addr(),
            &dir,
            "127.0.0.1:0",
            ServeConfig::default(),
            PoolConfig::default(),
            max_lag,
            format!("f{i}"),
        )
        .unwrap();
        assert!(
            hub.wait_for_follower(&format!("f{i}"), Duration::from_secs(5)),
            "follower f{i} never joined"
        );
        followers.push(follower);
        dirs.push(dir);
    }
    Cluster {
        primary,
        hub,
        followers,
        dirs,
    }
}

fn cleanup(dirs: &[PathBuf]) {
    for dir in dirs {
        std::fs::remove_dir_all(dir).ok();
    }
}

fn ingest(client: &mut Client, name: &str, content: &str) -> u64 {
    match client
        .request(&Request::Ingest {
            format: IngestFormat::Bibtex,
            name: name.into(),
            content: content.into(),
        })
        .unwrap()
    {
        Response::Ingested { epoch, .. } => epoch,
        other => panic!("ingest failed: {other:?}"),
    }
}

#[test]
fn followers_catch_up_and_answer_byte_identical_to_the_primary() {
    let cluster = cluster("ident", 2, 1024);
    let mut primary = Client::connect(cluster.primary.addr()).unwrap();

    // The ack gate already makes this write replication-durable; the
    // ack cursors prove both followers hold the acked head.
    ingest(&mut primary, "library", BIB);
    let head = cluster.primary.epoch_of(TenantId::DEFAULT).unwrap();
    for name in ["f0", "f1"] {
        assert!(
            cluster.hub.wait_for_ack(name, head, Duration::from_secs(5)),
            "{name} never acked head {head}"
        );
    }

    // Same requests, same answers — including the epoch each response is
    // pinned to: a follower at epoch E answers byte-identical to the
    // primary at epoch E.
    let probes = [
        Request::Search {
            query: "reconciliation".into(),
            k: 5,
            exhaustive: false,
        },
        Request::Query {
            pattern: "?pub AuthoredBy ?p".into(),
        },
        Request::View {
            query: "reconciliation".into(),
        },
        Request::Stats,
    ];
    for request in &probes {
        let want = primary.request(request).unwrap();
        assert!(
            !matches!(want, Response::Error { .. }),
            "primary errored: {want:?}"
        );
        for follower in &cluster.followers {
            let mut client = Client::connect(follower.serve.addr()).unwrap();
            let got = client.request(request).unwrap();
            assert_eq!(got, want, "follower diverges on {request:?}");
        }
    }

    // Writes to a follower are refused with a typed redirect.
    let mut fclient = Client::connect(cluster.followers[0].serve.addr()).unwrap();
    match fclient
        .request(&Request::AssertSame { a: 1, b: 2 })
        .unwrap()
    {
        Response::Error {
            kind: ErrorKindWire::NotPrimary,
            ..
        } => {}
        other => panic!("expected not_primary, got {other:?}"),
    }

    cleanup(&cluster.dirs);
}

#[test]
fn fresh_follower_bootstraps_a_journal_born_from_a_populated_store() {
    // `semex demo --durable` (and any `into_durable` call) creates a
    // journal whose sequence-0 snapshot holds the whole pre-built space:
    // no batch can ever reproduce that state. A fresh follower announcing
    // position 0 must still be sent the base image — "I am at sequence 0"
    // and "I hold nothing" are different claims. A follower killed while
    // installing that image leaves only its temp file behind, which is
    // still no journal: on restart it must install the image afresh.
    for leftover in [None, Some("snapshot-0000000001.bin.tmp")] {
        follower_bootstraps_a_born_journal(leftover);
    }
}

fn follower_bootstraps_a_born_journal(leftover: Option<&str>) {
    let primary_dir = scratch("born-primary");
    let semex = SemexBuilder::new()
        .add_bibtex("library", BIB)
        .build()
        .unwrap();
    let durable = semex
        .into_durable(&primary_dir, JournalConfig::default())
        .unwrap();
    let master = durable;
    let mut config = ServeConfig::default();
    let hub = replicate(
        &primary_dir,
        master.journal().unwrap().next_seq(),
        "127.0.0.1:0",
        &mut config,
        HubConfig::default(),
    )
    .unwrap();
    let primary = serve(master, "127.0.0.1:0", config, PoolConfig::default()).unwrap();

    let follower_dir = scratch("born-f0");
    if let Some(name) = leftover {
        std::fs::create_dir_all(&follower_dir).unwrap();
        std::fs::write(follower_dir.join(name), b"torn image").unwrap();
    }
    let follower = follow(
        hub.addr(),
        &follower_dir,
        "127.0.0.1:0",
        ServeConfig::default(),
        PoolConfig::default(),
        1024,
        "f0",
    )
    .unwrap();
    assert!(
        hub.wait_for_follower("f0", Duration::from_secs(5)),
        "follower never joined"
    );

    // The follower holds the base-snapshot state without a single batch
    // ever having been shipped.
    let mut p = Client::connect(primary.addr()).unwrap();
    let probe = Request::Search {
        query: "reconciliation".into(),
        k: 5,
        exhaustive: true,
    };
    let want = p.request(&probe).unwrap();
    match &want {
        Response::Hits { hits, .. } => {
            assert!(!hits.is_empty(), "base state must be searchable")
        }
        other => panic!("primary probe failed: {other:?}"),
    }
    let mut f = Client::connect(follower.serve.addr()).unwrap();
    assert_eq!(
        f.request(&probe).unwrap(),
        want,
        "fresh follower (leftover {leftover:?}) is missing the primary's base snapshot"
    );
    // The shipped image was installed as a binary epoch-1 snapshot.
    assert!(
        follower_dir.join("snapshot-0000000001.bin").exists(),
        "bootstrap image not installed as a binary snapshot"
    );

    // And the stream keeps working on top of the installed image.
    ingest(
        &mut p,
        "more",
        "@inproceedings{dh05b, title={Personal Information Management with SEMEX}, \
         author={Dong, Xin and Halevy, Alon}, booktitle={CIDR}, year=2005}",
    );
    let head = primary.epoch_of(TenantId::DEFAULT).unwrap();
    assert!(
        hub.wait_for_ack("f0", head, Duration::from_secs(5)),
        "follower never acked past the bootstrap image"
    );
    assert_eq!(f.request(&probe).unwrap(), p.request(&probe).unwrap());

    primary.shutdown();
    cleanup(&[primary_dir, follower_dir]);
}

#[test]
fn lagging_follower_refuses_reads_with_a_typed_error() {
    let cluster = cluster("lag", 1, 4);
    let follower = &cluster.followers[0];

    // Simulate a far-ahead primary: the pull stream announces a head the
    // follower has not applied yet.
    follower.role.note_primary_head(1_000_000);
    let mut client = Client::connect(follower.serve.addr()).unwrap();
    match client
        .request(&Request::Search {
            query: "anything".into(),
            k: 3,
            exhaustive: false,
        })
        .unwrap()
    {
        Response::Error {
            kind: ErrorKindWire::StaleReplica,
            message,
        } => assert!(message.contains("behind the primary"), "{message}"),
        other => panic!("expected stale_replica, got {other:?}"),
    }
    // Stats is exempt — an operator can always inspect a stale replica.
    assert!(matches!(
        client.request(&Request::Stats).unwrap(),
        Response::Stats { .. }
    ));

    cleanup(&cluster.dirs);
}

#[test]
fn promotion_over_the_wire_survives_primary_loss_with_no_acked_write_lost() {
    let cluster = cluster("promote", 1, 1024);
    let mut primary = Client::connect(cluster.primary.addr()).unwrap();

    ingest(&mut primary, "library", BIB);
    let head = cluster.primary.epoch_of(TenantId::DEFAULT).unwrap();
    assert!(cluster.hub.wait_for_ack("f0", head, Duration::from_secs(5)));

    // Graceful drain of the primary role: protocol shutdown, then the
    // hub (its End frame sends the follower into its reconnect loop —
    // exactly the state a failover starts from).
    match primary.request(&Request::Shutdown).unwrap() {
        Response::ShutdownAck { .. } => {}
        other => panic!("unexpected response: {other:?}"),
    }
    drop(primary);
    cluster.primary.join();
    cluster.hub.shutdown();

    // The follower is still a follower: writes refused.
    let follower = &cluster.followers[0];
    let mut client = Client::connect(follower.serve.addr()).unwrap();
    match ingest_err(&mut client) {
        ErrorKindWire::NotPrimary => {}
        other => panic!("expected not_primary, got {other:?}"),
    }

    // Promote over the wire: the wait-for-durable-prefix handshake
    // answers the epoch the new primary starts at — every acked write is
    // at or below it.
    match client.request(&Request::Promote).unwrap() {
        Response::Promoted { epoch } => assert_eq!(epoch, head),
        other => panic!("expected promoted, got {other:?}"),
    }
    // Promotion is idempotent over the wire.
    match client.request(&Request::Promote).unwrap() {
        Response::Promoted { epoch } => assert_eq!(epoch, head),
        other => panic!("expected promoted, got {other:?}"),
    }

    // The promoted primary accepts writes and serves the union of the
    // replicated and the new data.
    ingest(
        &mut client,
        "library2",
        "@article{h06, title={Data Integration Reconciliation Redux}, \
         author={Halevy, Alon}, year=2006}",
    );
    match client
        .request(&Request::Search {
            query: "reconciliation".into(),
            k: 10,
            exhaustive: false,
        })
        .unwrap()
    {
        Response::Hits { hits, .. } => assert_eq!(hits.len(), 2, "old + new publication"),
        other => panic!("unexpected response: {other:?}"),
    }

    cleanup(&cluster.dirs);
}

fn ingest_err(client: &mut Client) -> ErrorKindWire {
    match client
        .request(&Request::Ingest {
            format: IngestFormat::Bibtex,
            name: "x".into(),
            content: BIB.into(),
        })
        .unwrap()
    {
        Response::Error { kind, .. } => kind,
        other => panic!("expected an error, got {other:?}"),
    }
}

/// A minimal in-memory sink: enough to prove frame delivery and ordering
/// without a journal.
struct CountingSink {
    state: Mutex<(u64, Vec<String>)>,
}

impl ApplySink for CountingSink {
    fn head(&self) -> u64 {
        self.state.lock().unwrap().0
    }
    fn apply(&self, start_seq: u64, events_json: Vec<String>) -> Result<u64, String> {
        let mut state = self.state.lock().unwrap();
        if start_seq != state.0 {
            return Err(format!("gap: batch at {start_seq}, head {}", state.0));
        }
        state.0 += events_json.len() as u64;
        state.1.extend(events_json);
        Ok(state.0)
    }
}

#[test]
fn puller_reconnects_with_capped_backoff_until_the_primary_appears() {
    // Reserve an address, then free it: the puller starts against a
    // primary that is not there yet and must retry with backoff, not die.
    let addr: SocketAddr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };

    let sink = Arc::new(CountingSink {
        state: Mutex::new((0, Vec::new())),
    });
    let puller = Puller::start(
        addr,
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
    std::thread::sleep(Duration::from_millis(120));

    // The primary appears, with history the follower has never seen.
    let dir = scratch("late-primary");
    let io: Arc<dyn semex_journal::JournalIo> = Arc::new(FaultIo::new(FaultPlan::None));
    let (_, mut journal, _) = recover_with_io(&dir, JournalConfig::default(), io).unwrap();
    let mut store = semex_store::Store::with_builtin_model();
    store.enable_events();
    let person = store
        .model()
        .class(semex_model::names::class::PERSON)
        .unwrap();
    store.add_object(person);
    let events = store.take_events();
    journal.append_commit(&events).unwrap();
    let head = journal.next_seq();

    let hub = semex_replica::ReplicationHub::start(dir.clone(), addr, head, HubConfig::default())
        .unwrap();

    // The reconnect loop finds it and catches all the way up.
    assert!(
        hub.wait_for_ack("late", head, Duration::from_secs(10)),
        "late follower never caught up (head {head})"
    );
    let started = Instant::now();
    let (final_head, verdict) = puller.join();
    verdict.unwrap();
    assert_eq!(final_head, head);
    assert_eq!(sink.state.lock().unwrap().1.len(), events.len());
    assert!(started.elapsed() < Duration::from_secs(5));

    hub.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
