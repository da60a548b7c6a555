//! Multi-tenant serving end to end, over real sockets: tenant isolation,
//! backwards compatibility with pre-tenancy clients, the protocol version
//! handshake, tenant validation, and eviction under a tiny memory budget.

use semex_core::JournalConfig;
use semex_serve::protocol::{
    read_response, write_frame, write_request, ErrorKindWire, IngestFormat, Request, Response,
};
use semex_serve::{serve_tenants, Client, PoolConfig, ServeConfig, ServeHandle, TenantRegistry};
use std::net::TcpStream;
use std::path::PathBuf;

fn temp_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("semex-serve-tenants-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

fn pool_config() -> PoolConfig {
    PoolConfig {
        journal: JournalConfig {
            fsync: false,
            ..JournalConfig::default()
        },
        ..PoolConfig::default()
    }
}

fn start(root: &PathBuf, pool: PoolConfig) -> ServeHandle {
    let registry = TenantRegistry::open(root).expect("registry root");
    serve_tenants(registry, "127.0.0.1:0", ServeConfig::default(), pool).expect("bind")
}

fn ingest(token: &str) -> Request {
    Request::Ingest {
        format: IngestFormat::Mbox,
        name: "inbox".into(),
        content: format!("From: {token}@example.com\nSubject: {token}\n\nbody about {token}"),
    }
}

fn search(token: &str) -> Request {
    Request::Search {
        query: token.into(),
        k: 10,
        exhaustive: false,
    }
}

fn hits(response: Response) -> Vec<(u64, String, String)> {
    match response {
        Response::Hits { hits, .. } => hits
            .into_iter()
            .map(|h| (h.object, h.label, h.class))
            .collect(),
        other => panic!("expected hits, got {other:?}"),
    }
}

#[test]
fn tenants_are_isolated_and_pre_tenancy_clients_still_work() {
    let root = temp_root("isolation");
    let handle = start(&root, pool_config());
    let addr = handle.addr();

    let mut alice = Client::connect(addr).unwrap().with_tenant("alice");
    let mut bob = Client::connect(addr).unwrap().with_tenant("bob");
    assert!(matches!(
        alice.request(&ingest("alicetoken")).unwrap(),
        Response::Ingested { .. }
    ));
    assert!(matches!(
        bob.request(&ingest("bobtoken")).unwrap(),
        Response::Ingested { .. }
    ));

    // Each tenant sees its own writes and nothing of the other's.
    assert!(!hits(alice.request(&search("alicetoken")).unwrap()).is_empty());
    assert!(hits(alice.request(&search("bobtoken")).unwrap()).is_empty());
    assert!(!hits(bob.request(&search("bobtoken")).unwrap()).is_empty());
    assert!(hits(bob.request(&search("alicetoken")).unwrap()).is_empty());

    // A pre-tenancy client — raw frames with no `v` and no `tenant` field
    // — lands on the "default" tenant and works unchanged.
    let mut raw = TcpStream::connect(addr).unwrap();
    write_request(&mut raw, &ingest("defaulttoken")).unwrap();
    assert!(matches!(
        read_response(&mut raw).unwrap().unwrap(),
        Response::Ingested { .. }
    ));
    write_request(&mut raw, &search("defaulttoken")).unwrap();
    assert!(!hits(read_response(&mut raw).unwrap().unwrap()).is_empty());
    // The default tenant is isolated from the named ones too.
    write_request(&mut raw, &search("alicetoken")).unwrap();
    assert!(hits(read_response(&mut raw).unwrap().unwrap()).is_empty());

    // Close every connection before joining, or the workers sit out the
    // 30-second idle-read timeout on these still-open sockets.
    drop((alice, bob, raw));
    let report = handle.join();
    assert!(report.tenants.activations >= 3, "{:?}", report.tenants);
    assert_eq!(report.writer.writes_ok, 3);
}

#[test]
fn unknown_versions_get_a_typed_refusal_and_the_connection_survives() {
    let root = temp_root("version");
    let handle = start(&root, pool_config());
    let mut raw = TcpStream::connect(handle.addr()).unwrap();

    // A frame from the future: unknown version AND an unknown request
    // type. The version gate must answer, not the shape validator.
    write_frame(&mut raw, br#"{"v":99,"type":"telepathy"}"#).unwrap();
    match read_response(&mut raw).unwrap().unwrap() {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKindWire::UnsupportedVersion);
            assert!(message.contains("99"), "{message}");
        }
        other => panic!("expected typed refusal, got {other:?}"),
    }

    // Framing stayed in sync: the same connection keeps serving.
    write_request(&mut raw, &Request::Stats).unwrap();
    assert!(matches!(
        read_response(&mut raw).unwrap().unwrap(),
        Response::Stats { .. }
    ));
    drop(raw);
    handle.join();
}

#[test]
fn invalid_and_unknown_tenants_are_typed_errors() {
    let root = temp_root("validation");
    let handle = start(
        &root,
        PoolConfig {
            create_missing: false,
            ..pool_config()
        },
    );
    {
        let mut client = Client::connect(handle.addr())
            .unwrap()
            .with_tenant("../escape");
        match client.request(&Request::Stats).unwrap() {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKindWire::BadRequest),
            other => panic!("expected bad_request, got {other:?}"),
        }
    }
    {
        let mut client = Client::connect(handle.addr())
            .unwrap()
            .with_tenant("nobody");
        match client.request(&Request::Stats).unwrap() {
            Response::Error { kind, .. } => assert_eq!(kind, ErrorKindWire::NotFound),
            other => panic!("expected not_found, got {other:?}"),
        }
    }
    handle.join();
}

#[test]
fn tiny_budget_evicts_idle_tenants_and_reactivation_serves_their_data() {
    let root = temp_root("evict");
    // A budget of one byte means every idle tenant is evicted as soon as
    // another needs servicing — the maximally hostile schedule.
    let handle = start(
        &root,
        PoolConfig {
            memory_budget: 1,
            ..pool_config()
        },
    );
    let addr = handle.addr();

    let names: Vec<String> = (0..6).map(|i| format!("space-{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        let mut client = Client::connect(addr).unwrap().with_tenant(name.clone());
        let response = client.request(&ingest(&format!("token{i}"))).unwrap();
        assert!(
            matches!(response, Response::Ingested { .. }),
            "{response:?}"
        );
    }
    let mid = handle.tenants();
    assert!(mid.evictions > 0, "tiny budget must evict: {mid:?}");

    // Every space comes back from its journal with its data intact.
    for (i, name) in names.iter().enumerate() {
        let mut client = Client::connect(addr).unwrap().with_tenant(name.clone());
        let own = hits(client.request(&search(&format!("token{i}"))).unwrap());
        assert!(!own.is_empty(), "{name} lost its write across eviction");
        let other = hits(
            client
                .request(&search(&format!("token{}", (i + 1) % names.len())))
                .unwrap(),
        );
        assert!(other.is_empty(), "{name} sees another tenant's write");
    }

    let report = handle.join();
    assert!(report.tenants.cold_opens > 0, "{:?}", report.tenants);
    assert!(report.tenants.evictions > 0, "{:?}", report.tenants);
    assert_eq!(report.writer.writes_ok, names.len() as u64);
}

#[test]
fn client_retries_shed_writes_until_they_land() {
    use semex_serve::RetryPolicy;
    let root = temp_root("retry");
    // One writer, queue depth 1, tiny batches: concurrent writers are
    // guaranteed to see `overloaded{writes}` and must back off and retry.
    let registry = TenantRegistry::open(&root).expect("registry root");
    let handle = serve_tenants(
        registry,
        "127.0.0.1:0",
        ServeConfig {
            writer_threads: 1,
            ..ServeConfig::default()
        },
        PoolConfig {
            queue_depth: 1,
            max_batch: 1,
            ..pool_config()
        },
    )
    .expect("bind");
    let addr = handle.addr();

    let writers: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap().with_tenant("hot");
                let policy = RetryPolicy {
                    max_retries: 40,
                    base: std::time::Duration::from_millis(1),
                    cap: std::time::Duration::from_millis(50),
                };
                let mut landed = 0u32;
                for j in 0..3 {
                    let response = client
                        .request_with_retry(&ingest(&format!("retry{i}x{j}")), &policy)
                        .unwrap();
                    if matches!(response, Response::Ingested { .. }) {
                        landed += 1;
                    }
                }
                landed
            })
        })
        .collect();
    let landed: u32 = writers.into_iter().map(|t| t.join().unwrap()).sum();
    assert_eq!(landed, 12, "every retried write must eventually land");
    let report = handle.join();
    assert_eq!(report.writer.writes_ok, 12);
}
