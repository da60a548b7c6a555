//! Eviction correctness: evicting a tenant and recovering it from its
//! journal must be *observationally invisible* — byte-identical query
//! results AND epochs versus a twin tenant that was never evicted. Also
//! covers the degraded case: a tenant evicted while it carries an
//! un-durable write backlog (journal commits failing) comes back at
//! exactly its durable prefix.

use semex_core::JournalConfig;
use semex_journal::{FaultIo, FaultPlan};
use semex_serve::protocol::{IngestFormat, Request, Response};
use semex_serve::{serve_tenants, Client, PoolConfig, ServeConfig, ServeHandle, TenantRegistry};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("semex-serve-equiv-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

fn start(root: &PathBuf, pool: PoolConfig) -> ServeHandle {
    let registry = TenantRegistry::open(root).expect("registry root");
    serve_tenants(registry, "127.0.0.1:0", ServeConfig::default(), pool).expect("bind")
}

/// Evict with a bounded spin: an eviction requested right after a write's
/// ack can race the writer worker still clearing the tenant's in-service
/// flag (the ack is sent before the servicing pass fully unwinds).
fn evict_soon(handle: &ServeHandle, name: &str) -> bool {
    for _ in 0..2000 {
        if handle.evict_tenant(name) {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    false
}

fn ingest(token: &str) -> Request {
    Request::Ingest {
        format: IngestFormat::Mbox,
        name: "inbox".into(),
        content: format!("From: {token}@example.com\nSubject: {token}\n\nbody about {token}"),
    }
}

/// The full observable surface of a tenant, epochs included: stats, a
/// keyword search per token, and a pattern query.
fn observe(client: &mut Client, tokens: &[&str]) -> Vec<Response> {
    let mut out = vec![client.request(&Request::Stats).unwrap()];
    for token in tokens {
        out.push(
            client
                .request(&Request::Search {
                    query: token.to_string(),
                    k: 10,
                    exhaustive: false,
                })
                .unwrap(),
        );
        out.push(
            client
                .request(&Request::Query {
                    pattern: "?m MentionsPerson ?p".into(),
                })
                .unwrap(),
        );
    }
    out
}

/// Cold reactivation goes through the binary snapshot and the index
/// sidecar.
#[test]
fn evicted_tenant_is_indistinguishable_from_its_never_evicted_twin() {
    let root = temp_root("twin");
    let handle = start(
        &root,
        PoolConfig {
            journal: JournalConfig {
                fsync: false,
                ..JournalConfig::default()
            },
            ..PoolConfig::default()
        },
    );
    let addr = handle.addr();
    let mut stayer = Client::connect(addr).unwrap().with_tenant("stayer");
    let mut mover = Client::connect(addr).unwrap().with_tenant("mover");
    let tokens = ["apples", "bananas", "cherries"];

    // Identical write histories, with the mover evicted after every write
    // — including once mid-history, so recovery feeds later writes.
    for (i, token) in tokens.iter().enumerate() {
        let a = stayer.request(&ingest(token)).unwrap();
        let b = mover.request(&ingest(token)).unwrap();
        assert_eq!(a, b, "acks must match (epochs included) at write {i}");
        assert!(matches!(a, Response::Ingested { .. }));
        assert!(evict_soon(&handle, "mover"), "evict after write {i}");
        assert!(!handle.evict_tenant("mover"), "already evicted");
    }

    // Every observable answer — results, counts, and epochs — matches.
    assert_eq!(
        observe(&mut stayer, &tokens),
        observe(&mut mover, &tokens),
        "evict/reactivate must be observationally invisible"
    );

    // Close the connections before joining, or the workers sit out the
    // idle-read timeout on these still-open sockets.
    drop((stayer, mover));
    let report = handle.join();
    assert!(report.tenants.evictions >= 3, "{:?}", report.tenants);
    assert!(report.tenants.cold_opens >= 3, "{:?}", report.tenants);
}

#[test]
fn degraded_tenant_evicted_mid_backlog_recovers_its_durable_prefix() {
    let root = temp_root("degraded");
    let fault = FaultIo::new(FaultPlan::None);
    let handle = start(
        &root,
        PoolConfig {
            journal: JournalConfig {
                fsync: false,
                ..JournalConfig::default()
            },
            journal_io: Some(Arc::new(fault.clone())),
            ..PoolConfig::default()
        },
    );
    let addr = handle.addr();
    let mut twin = Client::connect(addr).unwrap().with_tenant("twin");
    let mut victim = Client::connect(addr).unwrap().with_tenant("victim");

    // Durable prefix: one committed write each.
    assert!(matches!(
        twin.request(&ingest("durabletoken")).unwrap(),
        Response::Ingested { .. }
    ));
    assert!(matches!(
        victim.request(&ingest("durabletoken")).unwrap(),
        Response::Ingested { .. }
    ));

    // The disk fills: the victim's next write applies in memory but its
    // commit fails, so the ack is the typed degraded answer.
    fault.set_plan(FaultPlan::DiskFull {
        at: fault.op_count(),
    });
    match victim.request(&ingest("ghosttoken")).unwrap() {
        Response::Error { kind, message } => {
            assert_eq!(kind, semex_serve::protocol::ErrorKindWire::Degraded);
            assert!(message.contains("not durable"), "{message}");
        }
        other => panic!("expected degraded error, got {other:?}"),
    }
    // Degraded reads still serve the un-durable state…
    match victim
        .request(&Request::Search {
            query: "ghosttoken".into(),
            k: 10,
            exhaustive: false,
        })
        .unwrap()
    {
        Response::Hits { hits, .. } => assert!(!hits.is_empty(), "degraded state must serve"),
        other => panic!("{other:?}"),
    }

    // …until the tenant is evicted mid-backlog: the un-durable mutations
    // go with it (their writer was told "not durable"), and recovery —
    // disk space restored — reboots at exactly the durable prefix.
    assert!(evict_soon(&handle, "victim"), "evict while degraded");
    fault.clear_faults();

    assert_eq!(
        observe(&mut twin, &["durabletoken", "ghosttoken"]),
        observe(&mut victim, &["durabletoken", "ghosttoken"]),
        "recovered victim must equal the twin that never saw the ghost write"
    );
    drop((twin, victim));
    handle.join();
}
