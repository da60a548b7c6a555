//! End-to-end smoke: a scripted client session covering every request
//! variant against a live server on an ephemeral port, a clean
//! protocol-level shutdown with all threads joined, and admission control
//! shedding under deliberate overload.

use semex_core::{Semex, SemexBuilder};
use semex_serve::protocol::{
    read_response, write_frame, ErrorKindWire, IngestFormat, Request, Response,
};
use semex_serve::{serve, Client, PoolConfig, ServeConfig};
use semex_store::StoreEvent;
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

fn demo() -> Semex {
    SemexBuilder::new()
        .add_bibtex(
            "library",
            "@inproceedings{d5, title={Reference Reconciliation in Complex Spaces}, \
             author={Dong, Xin and Halevy, Alon}, booktitle={SIGMOD}, year=2005}",
        )
        .add_mbox(
            "inbox",
            "From: Xin Dong <luna@cs.example.edu>\nTo: Alon Halevy <alon@cs.example.edu>\n\
             Subject: demo plan\n\nSee you Friday.",
        )
        .build()
        .unwrap()
}

#[test]
fn every_request_variant_round_trips_through_a_live_server() {
    let handle = serve(
        demo(),
        "127.0.0.1:0",
        ServeConfig::default(),
        PoolConfig::default(),
    )
    .unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();

    // Search, pruned and exhaustive, with identical results.
    let hits = |response: Response| match response {
        Response::Hits { hits, .. } => hits,
        other => panic!("unexpected response: {other:?}"),
    };
    let pruned = hits(
        client
            .request(&Request::Search {
                query: "reconciliation".into(),
                k: 5,
                exhaustive: false,
            })
            .unwrap(),
    );
    let exhaustive = hits(
        client
            .request(&Request::Search {
                query: "reconciliation".into(),
                k: 5,
                exhaustive: true,
            })
            .unwrap(),
    );
    assert_eq!(pruned.len(), 1);
    assert_eq!(pruned, exhaustive, "both evaluators agree over the wire");

    // Pattern query.
    match client
        .request(&Request::Query {
            pattern: "?pub AuthoredBy ?p".into(),
        })
        .unwrap()
    {
        Response::Solutions { total, rows, .. } => {
            assert_eq!(total, 2, "two authors");
            assert_eq!(rows.len(), 2);
            assert!(rows.iter().all(|r| r.len() == 2), "?p and ?pub per row");
        }
        other => panic!("unexpected response: {other:?}"),
    }
    // A bad pattern is a typed client error that keeps the connection
    // usable.
    match client
        .request(&Request::Query {
            pattern: "?x ?y".into(),
        })
        .unwrap()
    {
        Response::Error {
            kind: ErrorKindWire::InvalidQuery,
            ..
        } => {}
        other => panic!("unexpected response: {other:?}"),
    }

    // View and browse of the top hit; a miss is NotFound.
    let dong = match client
        .request(&Request::View {
            query: "class:Person dong".into(),
        })
        .unwrap()
    {
        Response::View { object, text, .. } => {
            assert!(text.contains("[Person]"), "{text}");
            object
        }
        other => panic!("unexpected response: {other:?}"),
    };
    match client
        .request(&Request::Browse {
            query: "class:Person dong".into(),
        })
        .unwrap()
    {
        Response::Links { object, links, .. } => {
            assert_eq!(object, dong);
            assert!(!links.is_empty(), "authored + sender links");
        }
        other => panic!("unexpected response: {other:?}"),
    }
    match client
        .request(&Request::View {
            query: "xyzzy nothing matches".into(),
        })
        .unwrap()
    {
        Response::Error {
            kind: ErrorKindWire::NotFound,
            ..
        } => {}
        other => panic!("unexpected response: {other:?}"),
    }

    // Stats before the writes.
    let objects_before = match client.request(&Request::Stats).unwrap() {
        Response::Stats { epoch, objects, .. } => {
            assert_eq!(epoch, 0, "no writes published yet");
            objects
        }
        other => panic!("unexpected response: {other:?}"),
    };

    // Ingest (two formats), visible immediately after the ack.
    match client
        .request(&Request::Ingest {
            format: IngestFormat::Mbox,
            name: "new-mail".into(),
            content: "From: Carol Reyes <carol@z.net>\nTo: luna@cs.example.edu\n\
                      Subject: quokka\n\nhello"
                .into(),
        })
        .unwrap()
    {
        Response::Ingested { epoch, records, .. } => {
            assert!(epoch > 0);
            assert_eq!(records, 1);
        }
        other => panic!("unexpected response: {other:?}"),
    }
    match client
        .request(&Request::Ingest {
            format: IngestFormat::Bibtex,
            name: "more-papers".into(),
            content: "@article{x9, title={Axolotl Indexing}, \
                      author={Reyes, Carol}, year=2004}"
                .into(),
        })
        .unwrap()
    {
        Response::Ingested { records, .. } => assert_eq!(records, 1),
        other => panic!("unexpected response: {other:?}"),
    }
    assert_eq!(
        hits(
            client
                .request(&Request::Search {
                    query: "quokka".into(),
                    k: 5,
                    exhaustive: false
                })
                .unwrap()
        )
        .len(),
        1,
        "read-your-writes"
    );
    // A broken source is a typed extract error, not a dropped connection.
    match client
        .request(&Request::Ingest {
            format: IngestFormat::Bibtex,
            name: "broken".into(),
            content: "@article{x, title={oops".into(),
        })
        .unwrap()
    {
        Response::Error {
            kind: ErrorKindWire::Extract,
            message,
        } => assert!(message.contains("broken"), "{message}"),
        other => panic!("unexpected response: {other:?}"),
    }

    // CSV integration.
    match client
        .request(&Request::IntegrateCsv {
            name: "attendees".into(),
            csv: "name,email\nXin Dong,luna@cs.example.edu\nDana Wolfe,dana@w.net\n".into(),
        })
        .unwrap()
    {
        Response::Integrated {
            matched,
            score,
            created,
            merged,
            ..
        } => {
            assert!(matched);
            assert!(score > 0.5);
            assert_eq!(created, 2);
            assert_eq!(merged, 1, "Xin Dong reconciles into the existing object");
        }
        other => panic!("unexpected response: {other:?}"),
    }
    // A hopeless table is a negative outcome, not an error.
    match client
        .request(&Request::IntegrateCsv {
            name: "junk".into(),
            csv: "qty,sku\n1,AB\n".into(),
        })
        .unwrap()
    {
        Response::Integrated { matched: false, .. } => {}
        other => panic!("unexpected response: {other:?}"),
    }

    // Feedback assertions.
    let halevy = match client
        .request(&Request::View {
            query: "class:Person halevy".into(),
        })
        .unwrap()
    {
        Response::View { object, .. } => object,
        other => panic!("unexpected response: {other:?}"),
    };
    match client
        .request(&Request::AssertSame { a: dong, b: halevy })
        .unwrap()
    {
        Response::Asserted { merged, .. } => assert!(merged),
        other => panic!("unexpected response: {other:?}"),
    }
    match client
        .request(&Request::AssertDistinct { a: dong, b: halevy })
        .unwrap()
    {
        Response::Asserted { merged, .. } => assert!(!merged, "cannot split a merge"),
        other => panic!("unexpected response: {other:?}"),
    }
    // Nonexistent ids are a typed client error.
    match client
        .request(&Request::AssertSame {
            a: dong,
            b: 1 << 40,
        })
        .unwrap()
    {
        Response::Error {
            kind: ErrorKindWire::BadRequest,
            ..
        } => {}
        other => panic!("unexpected response: {other:?}"),
    }

    // Stats reflect the session's writes against a later epoch.
    match client.request(&Request::Stats).unwrap() {
        Response::Stats {
            epoch,
            objects,
            aliases,
            ..
        } => {
            assert!(epoch > 0);
            assert!(objects > objects_before);
            assert!(aliases > 0, "the assert-same merge shows up");
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // A malformed frame from a raw socket gets a typed answer too.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        write_frame(&mut raw, b"{this is not json").unwrap();
        match read_response(&mut raw).unwrap().unwrap() {
            Response::Error {
                kind: ErrorKindWire::BadRequest,
                ..
            } => {}
            other => panic!("unexpected response: {other:?}"),
        }
    }

    // Protocol-level shutdown; join proves no thread leaks.
    match client.request(&Request::Shutdown).unwrap() {
        Response::ShutdownAck { epoch } => assert!(epoch > 0),
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    let report = handle.join();
    assert!(report.requests >= 20, "{report:?}");
    assert_eq!(report.shed_connections, 0);
    assert_eq!(report.shed_writes, 0);
    assert!(report.writer.writes_ok >= 4, "{report:?}");
}

#[test]
fn an_over_budget_pattern_join_is_refused_and_the_connection_stays_open() {
    // 40 papers with 3 authors each: 120 AuthoredBy edges, so a three-way
    // cross product would be 1.7M rows.
    let bib: String = (0..40)
        .map(|i| {
            format!(
                "@inproceedings{{k{i}, title={{Paper {i}}}, \
                 author={{A{i} Aa and B{i} Bb and C{i} Cc}}, booktitle={{V}}, year=2004}}\n"
            )
        })
        .collect();
    let space = SemexBuilder::new()
        .add_bibtex("library", &bib)
        .build()
        .unwrap();
    let handle = serve(
        space,
        "127.0.0.1:0",
        ServeConfig::default(),
        PoolConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    match client
        .request(&Request::Query {
            pattern: "?a AuthoredBy ?b . ?c AuthoredBy ?d . ?e AuthoredBy ?f".into(),
        })
        .unwrap()
    {
        Response::Error {
            kind: ErrorKindWire::InvalidQuery,
            message,
        } => assert!(message.starts_with("query refused: "), "{message}"),
        other => panic!("unexpected response: {other:?}"),
    }
    // The same connection answers the next request.
    match client
        .request(&Request::Query {
            pattern: "?pub AuthoredBy ?p".into(),
        })
        .unwrap()
    {
        Response::Solutions { total, .. } => assert_eq!(total, 120),
        other => panic!("unexpected response: {other:?}"),
    }
    match client.request(&Request::Shutdown).unwrap() {
        Response::ShutdownAck { .. } => {}
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    handle.join();
}

#[test]
fn overload_sheds_connections_with_a_typed_response() {
    // One worker, a one-slot backlog: the third concurrent connection
    // must be shed at the door.
    let config = ServeConfig {
        threads: 1,
        conn_queue: 1,
        read_timeout: Duration::from_secs(5),
        ..ServeConfig::default()
    };
    let handle = serve(demo(), "127.0.0.1:0", config, PoolConfig::default()).unwrap();
    let addr = handle.addr();

    // Occupy the only worker with a held-open session...
    let mut held = Client::connect(addr).unwrap();
    assert!(matches!(
        held.request(&Request::Stats).unwrap(),
        Response::Stats { .. }
    ));
    // ...fill the one backlog slot...
    let queued = Client::connect(addr).unwrap();
    thread::sleep(Duration::from_millis(50)); // let the listener admit it
                                              // ...and the next connection is answered `overloaded` unprompted and
                                              // closed — nothing even needs to be sent on it.
    let mut shed = TcpStream::connect(addr).unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match read_response(&mut shed).unwrap().unwrap() {
        Response::Overloaded { queue } => assert_eq!(queue, "connections"),
        other => panic!("unexpected response: {other:?}"),
    }

    drop(held);
    drop(queued);
    drop(shed);
    handle.shutdown();
    let report = handle.join();
    assert!(report.shed_connections >= 1, "{report:?}");
}

#[test]
fn overload_sheds_writes_with_a_typed_response() {
    // Three workers but a one-slot write queue: while a slow write holds
    // the writer and a second write fills the slot, a third gets shed.
    let config = ServeConfig {
        threads: 3,
        ..ServeConfig::default()
    };
    let pool = PoolConfig {
        queue_depth: 1,
        max_batch: 1,
        ..PoolConfig::default()
    };
    let handle = serve(demo(), "127.0.0.1:0", config, pool).unwrap();
    let addr = handle.addr();

    let slow_mbox: String = (0..250)
        .map(|i| format!("From: s{i}@slow.example\nSubject: slow\n\nbody {i}\n\n"))
        .collect();
    let slow = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .request(&Request::Ingest {
                format: IngestFormat::Mbox,
                name: "slow".into(),
                content: slow_mbox,
            })
            .unwrap()
    });
    thread::sleep(Duration::from_millis(30)); // writer is now busy
    let queued = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client
            .request(&Request::Ingest {
                format: IngestFormat::Mbox,
                name: "queued".into(),
                content: "From: q@q.example\nSubject: queued\n\nbody".into(),
            })
            .unwrap()
    });
    thread::sleep(Duration::from_millis(30)); // queue slot is now full
    let mut client = Client::connect(addr).unwrap();
    let shed_response = client
        .request(&Request::Ingest {
            format: IngestFormat::Mbox,
            name: "shed".into(),
            content: "From: x@x.example\nSubject: shed\n\nbody".into(),
        })
        .unwrap();

    // The raced outcomes: the slow and queued writes ack; the third was
    // either shed (expected) or — if the writer raced ahead — acked.
    assert!(matches!(slow.join().unwrap(), Response::Ingested { .. }));
    assert!(matches!(queued.join().unwrap(), Response::Ingested { .. }));
    let was_shed = match shed_response {
        Response::Overloaded { ref queue } => {
            assert_eq!(queue, "writes");
            true
        }
        Response::Ingested { .. } => false,
        other => panic!("unexpected response: {other:?}"),
    };

    drop(client);
    handle.shutdown();
    let report = handle.join();
    if was_shed {
        assert!(report.shed_writes >= 1, "{report:?}");
    }
    assert!(report.writer.writes_ok >= 2, "{report:?}");
}

#[test]
fn a_hostile_replicated_batch_degrades_with_a_typed_error_and_the_connection_stays_open() {
    let dir = std::env::temp_dir().join(format!("semex-smoke-hostile-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let durable = demo()
        .into_durable(&dir, semex_core::JournalConfig::default())
        .unwrap();
    let head = durable.journal().unwrap().next_seq();
    let objects = durable.store().object_count();
    let person = durable.store().model().class("Person").unwrap();
    let handle = serve(
        durable,
        "127.0.0.1:0",
        ServeConfig::default(),
        PoolConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let search = Request::Search {
        query: "reconciliation".into(),
        k: 5,
        exhaustive: false,
    };
    assert!(matches!(
        client.request(&search).unwrap(),
        Response::Hits { .. }
    ));

    // A valid new object, then a replicated merge of ids the follower
    // never allocated.
    let add = serde_json::to_string(&StoreEvent::AddObject { class: person }).unwrap();
    let merge = r#"{"Merge":{"winner":900001,"loser":900002}}"#.to_string();
    let err = handle
        .replication_sink()
        .apply("default", head, vec![add, merge])
        .unwrap_err();
    assert!(err.contains("unknown object"), "{err}");

    // The applied prefix is published under its own epoch: a changed state
    // never reuses the epoch of the state before it.
    assert_eq!(handle.epoch_of("default"), Some(head + 1));
    match client.request(&Request::Stats).unwrap() {
        Response::Stats {
            epoch,
            objects: now,
            ..
        } => {
            assert_eq!(epoch, head + 1);
            assert_eq!(now, objects + 1);
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // The connection opened before still answers reads, and the space has
    // degraded to read-only.
    assert!(matches!(
        client.request(&search).unwrap(),
        Response::Hits { .. }
    ));
    match client
        .request(&Request::Ingest {
            format: IngestFormat::Bibtex,
            name: "more".into(),
            content: "@misc{z, title={Zanzibar}}".into(),
        })
        .unwrap()
    {
        Response::Error {
            kind: ErrorKindWire::Degraded,
            ..
        } => {}
        other => panic!("a degraded space must refuse writes: {other:?}"),
    }
    match client.request(&Request::Shutdown).unwrap() {
        Response::ShutdownAck { .. } => {}
        other => panic!("unexpected response: {other:?}"),
    }
    drop(client);
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
