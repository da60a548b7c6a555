//! Concurrency correctness: N reader clients hammer the server while a
//! writer client streams mutations through the serialized write path.
//!
//! Verified properties:
//! - **No torn epochs.** Every response names the epoch it was computed
//!   against, and all responses naming the same epoch — across all reader
//!   threads, the whole run — report identical store statistics. A read
//!   can never observe half of a write batch.
//! - **Monotonic epochs per connection.** A client never travels back in
//!   time.
//! - **Read-your-writes.** Every acked write carries the epoch it was
//!   published in; a search at-or-after that epoch finds it.
//! - **Serialized writes equal sequential replay.** After shutdown, the
//!   recorded command sequence applied to a fresh copy of the initial
//!   platform yields a canonically byte-identical store.

use semex_core::{Semex, SemexBuilder};
use semex_serve::json::Json;
use semex_serve::protocol::{IngestFormat, Request, Response};
use semex_serve::{serve, Client, PoolConfig, ServeConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const READERS: usize = 4;
const WRITES: usize = 24;

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

/// A unique, purely alphabetic search token per write (digits could be
/// split off by the tokenizer and collide across writes).
fn token(i: usize) -> String {
    format!(
        "tok{}{}",
        char::from(b'a' + (i / 26) as u8),
        char::from(b'a' + (i % 26) as u8)
    )
}

/// Canonicalize a JSON document: same data → same bytes, regardless of
/// the key order HashMap-backed serializers happened to emit.
fn canon(text: &str) -> String {
    fn sort(v: &mut Json) {
        match v {
            Json::Arr(items) => items.iter_mut().for_each(sort),
            Json::Obj(fields) => {
                fields.iter_mut().for_each(|(_, v)| sort(v));
                fields.sort_by(|a, b| a.0.cmp(&b.0));
            }
            _ => {}
        }
    }
    let mut v = Json::parse(text).expect("store snapshots are valid JSON");
    sort(&mut v);
    v.encode()
}

#[test]
fn readers_never_observe_torn_epochs_and_writes_replay_sequentially() {
    let config = ServeConfig {
        threads: READERS + 1, // readers plus the writer client
        record_writes: true,
        ..ServeConfig::default()
    };
    let handle = serve(demo(), "127.0.0.1:0", config, PoolConfig::default()).unwrap();
    let addr = handle.addr();

    // The writer client: a stream of ingests, each a unique token.
    let writer = thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut acked = Vec::new();
        for i in 0..WRITES {
            let response = client
                .request(&Request::Ingest {
                    format: IngestFormat::Mbox,
                    name: format!("w{i}"),
                    content: format!(
                        "From: w{i}@writes.example\nSubject: {}\n\nbody {i}",
                        token(i)
                    ),
                })
                .unwrap();
            match response {
                Response::Ingested { epoch, records, .. } => {
                    assert_eq!(records, 1);
                    assert!(epoch > 0, "acks carry the publication epoch");
                    // Read-your-writes: the ack's epoch (or later) serves
                    // the write on the very next request.
                    match client
                        .request(&Request::Search {
                            query: token(i),
                            k: 3,
                            exhaustive: false,
                        })
                        .unwrap()
                    {
                        Response::Hits {
                            epoch: read_epoch,
                            hits,
                        } => {
                            assert!(read_epoch >= epoch, "epochs are monotonic");
                            assert_eq!(hits.len(), 1, "acked write {i} must be found");
                        }
                        other => panic!("unexpected response: {other:?}"),
                    }
                    acked.push(epoch);
                }
                other => panic!("unexpected response: {other:?}"),
            }
        }
        acked
    });

    // Reader clients: record (epoch, stats) pairs as fast as they can.
    let done = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut observed = Vec::new();
                let mut last_epoch = 0u64;
                while !done.load(Ordering::Relaxed) {
                    match client.request(&Request::Stats).unwrap() {
                        Response::Stats {
                            epoch,
                            objects,
                            aliases,
                            edges,
                            sources,
                            ..
                        } => {
                            assert!(epoch >= last_epoch, "no time travel on one connection");
                            last_epoch = epoch;
                            observed.push((epoch, (objects, aliases, edges, sources)));
                        }
                        other => panic!("unexpected response: {other:?}"),
                    }
                    // A search against (possibly) another snapshot load must
                    // also be internally consistent — exercised for panics
                    // and torn state, result content checked via epochs.
                    match client
                        .request(&Request::Search {
                            query: "reconciliation".into(),
                            k: 5,
                            exhaustive: false,
                        })
                        .unwrap()
                    {
                        Response::Hits { epoch, hits } => {
                            assert!(epoch >= last_epoch);
                            last_epoch = epoch;
                            assert_eq!(hits.len(), 1, "the seed publication is always there");
                        }
                        other => panic!("unexpected response: {other:?}"),
                    }
                }
                observed
            })
        })
        .collect();

    let acked = writer.join().unwrap();
    done.store(true, Ordering::Relaxed);
    let observations: Vec<_> = readers
        .into_iter()
        .flat_map(|r| r.join().unwrap())
        .collect();

    // Clean shutdown through the protocol.
    let mut client = Client::connect(addr).unwrap();
    assert!(matches!(
        client.request(&Request::Shutdown).unwrap(),
        Response::ShutdownAck { .. }
    ));
    drop(client);
    let report = handle.join();

    // Every write acked, none failed, and ack epochs never regress.
    assert_eq!(acked.len(), WRITES);
    assert!(acked.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(report.writer.writes_ok, WRITES as u64);
    assert_eq!(report.writer.writes_failed, 0);
    assert!(
        report.writer.batches as usize <= WRITES,
        "batches cannot outnumber writes"
    );

    // No torn epochs: one epoch, one state — across every reader thread.
    assert!(!observations.is_empty());
    let mut by_epoch: HashMap<u64, (usize, usize, usize, usize)> = HashMap::new();
    for (epoch, stats) in observations {
        match by_epoch.entry(epoch) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(stats);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                assert_eq!(
                    *e.get(),
                    stats,
                    "epoch {epoch} observed with two different states"
                );
            }
        }
    }

    // The served, concurrent history equals a sequential replay of the
    // recorded commands on a fresh copy of the initial platform.
    assert_eq!(report.writer.applied.len(), WRITES);
    let mut replay = demo();
    for cmd in &report.writer.applied {
        cmd.apply(&mut replay)
            .unwrap_or_else(|e| panic!("replay rejected {cmd:?}: {e:?}"));
    }
    replay.flush_index();
    let master = report
        .master
        .expect("single-tenant serve hands back its pinned master");
    assert_eq!(
        canon(&replay.store().to_json().unwrap()),
        canon(&master.store().to_json().unwrap()),
        "post-shutdown store must be byte-identical to the sequential replay"
    );
    // And the final store really contains every acked token.
    for i in 0..WRITES {
        assert_eq!(master.search(&token(i), 3).len(), 1, "write {i}");
    }
}
