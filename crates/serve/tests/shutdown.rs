//! The graceful-shutdown durability contract.
//!
//! - Every write acked before shutdown is journal-committed: a fresh
//!   `open_durable` recovery finds it.
//! - Writes that were queued but unacked when shutdown began are answered
//!   with a typed `shutting_down` error — never silently dropped — and are
//!   *not* in the recovered store.
//! - During the drain, admitted connections keep getting read service,
//!   while new writes on them are deterministically rejected.
//! - `join` returns only after every thread is finished: nothing leaks.

use semex_core::{JournalConfig, Semex, SemexConfig};
use semex_serve::protocol::{ErrorKindWire, IngestFormat, Request, Response};
use semex_serve::{serve, Client, PoolConfig, ServeConfig};
use std::thread;
use std::time::Duration;

fn ingest(name: &str, content: String) -> Request {
    Request::Ingest {
        format: IngestFormat::Mbox,
        name: name.into(),
        content,
    }
}

/// Whether a token is findable after recovering the journal directory.
fn recovered_has(dir: &std::path::Path, cfg: &JournalConfig, tokens: &[(&str, bool)]) {
    let (recovered, report) =
        Semex::open_durable_with(dir, SemexConfig::default(), cfg.clone()).unwrap();
    assert!(report.damage.is_none(), "{report:?}");
    for (tok, expected) in tokens {
        assert_eq!(
            !recovered.search(tok, 3).is_empty(),
            *expected,
            "token {tok:?} — acked writes must be recoverable, rejected ones absent"
        );
    }
}

#[test]
fn acked_writes_recover_and_unacked_queued_writes_are_rejected() {
    let dir = std::env::temp_dir().join(format!("semex-serve-shutdown-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let journal_cfg = JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    };
    let (durable, report) =
        Semex::open_durable_with(&dir, SemexConfig::default(), journal_cfg.clone()).unwrap();
    assert!(report.initialized);

    let config = ServeConfig {
        threads: 3,
        ..ServeConfig::default()
    };
    let handle = serve(durable, "127.0.0.1:0", config, PoolConfig::default()).unwrap();
    let addr = handle.addr();

    // 1. A write acked well before shutdown.
    let mut session = Client::connect(addr).unwrap();
    let acked_epoch = match session
        .request(&ingest(
            "first",
            "From: a@pre.example\nSubject: ackedword\n\nbody".into(),
        ))
        .unwrap()
    {
        Response::Ingested { epoch, .. } => epoch,
        other => panic!("unexpected response: {other:?}"),
    };
    assert!(acked_epoch > 0);

    // 2. A deliberately slow write occupies the writer thread...
    let slow = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mbox: String = (0..250)
            .map(|i| format!("From: p{i}@slow.example\nSubject: slowword\n\nbody {i}\n\n"))
            .collect();
        client.request(&ingest("slow", mbox)).unwrap()
    });
    thread::sleep(Duration::from_millis(30));
    // ...so this one queues behind it, unacked...
    let queued = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .request(&ingest(
                "queued",
                "From: q@late.example\nSubject: queuedword\n\nbody".into(),
            ))
            .unwrap()
    });
    thread::sleep(Duration::from_millis(10));
    // ...when shutdown begins.
    handle.shutdown();

    // 3. During the drain, the admitted session still gets reads served —
    //    and its new writes are deterministically rejected with the typed
    //    error (the write was NOT applied).
    match session.request(&Request::Stats).unwrap() {
        Response::Stats { .. } => {}
        other => panic!("reads must drain through shutdown: {other:?}"),
    }
    match session
        .request(&ingest(
            "late",
            "From: z@late.example\nSubject: lateword\n\nbody".into(),
        ))
        .unwrap()
    {
        Response::Error {
            kind: ErrorKindWire::ShuttingDown,
            ..
        } => {}
        other => panic!("post-shutdown writes must be rejected, got: {other:?}"),
    }

    // 4. The raced writes each got a definitive, typed answer: either an
    //    acked epoch (then the write is durable) or shutting_down (then it
    //    was never applied). Nothing hangs, nothing is dropped.
    let slow_response = slow.join().unwrap();
    let queued_response = queued.join().unwrap();
    let verdict = |response: &Response| match response {
        Response::Ingested { epoch, .. } => {
            assert!(*epoch > 0);
            true
        }
        Response::Error {
            kind: ErrorKindWire::ShuttingDown,
            ..
        } => false,
        other => panic!("a raced write must ack or reject, got: {other:?}"),
    };
    let slow_acked = verdict(&slow_response);
    let queued_acked = verdict(&queued_response);

    drop(session);
    let report = handle.join(); // joins every thread — nothing leaks
    assert_eq!(
        report.writer.writes_ok,
        1 + [slow_acked, queued_acked].iter().filter(|a| **a).count() as u64,
        "every ack corresponds to exactly one applied write: {report:?}"
    );

    // 5. Recovery sees exactly the acked writes.
    recovered_has(
        &dir,
        &journal_cfg,
        &[
            ("ackedword", true),
            ("slowword", slow_acked),
            ("queuedword", queued_acked),
            ("lateword", false),
        ],
    );
    std::fs::remove_dir_all(&dir).ok();
}
