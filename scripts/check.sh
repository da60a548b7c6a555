#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full test suite.
# Run from anywhere; operates on the repository root.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test -q --workspace

echo "==> durability fault sweep (a fault injected at every journal I/O op,"
echo "    and at every op of a legacy JSON space's migrating compaction; at"
echo "    every crash point of both, the replication export must equal what"
echo "    recovery opens)"
cargo test -q -p semex-journal --test fault_sweep -- --nocapture

echo "==> binary snapshot suite (round trips, legacy JSON migration, epoch"
echo "    fallback on damage, and durable vs in-memory twin equivalence)"
cargo test -q -p semex-journal --test binary_format
cargo test -q --test format_equiv

echo "==> decoder fuzz (hostile bytes -> typed errors, never panics; arbitrary"
echo "    stores and indexes round-trip byte-identically)"
cargo test -q -p semex-store --test binary_fuzz_prop
cargo test -q -p semex-index --test sidecar_fuzz_prop

echo "==> incremental reconciliation equivalence (persistent state vs the"
echo "    rebuild-and-filter oracle over random write sequences at every variant"
echo "    and thread count, probe blocking vs filtered all-pairs, the platform vs"
echo "    fresh-state twins with index batching on and off, scale-independent"
echo "    examined counts, one publish path for store events: local writes"
echo "    with batching on and off, replicated apply and recovery on a sidecar"
echo "    leave the same store, index and reconciliation state; and copy-on-write"
echo "    isolation: every earlier snapshot keeps its images and answers while"
echo "    the master writes, merges, extends its model and compacts its index)"
cargo test -q -p semex-recon --lib state::tests
cargo test -q --test incremental_state_prop
cargo test -q --test incremental_recon
cargo test -q --test publish_equiv
cargo test -q --test snapshot_cow_prop

echo "==> index equivalence suite (parallel/incremental/pruned vs oracle)"
cargo test -q -p semex-index --test index_equiv_prop
cargo test -q -p semex-index --lib search::tests

echo "==> serve smoke (live server on an ephemeral port: every request variant,"
echo "    overload shedding, clean shutdown with zero leaked threads)"
cargo test -q -p semex-serve --test smoke
cargo test -q -p semex-serve --test shutdown

echo "==> tenancy suite (isolation over sockets, version handshake, budget"
echo "    eviction, and evict/reactivate equivalence vs a never-evicted twin)"
cargo test -q -p semex-serve --test tenants
cargo test -q -p semex-serve --test eviction_equiv

echo "==> cache equivalence suite (cached server vs cacheless twin: identical"
echo "    answers under random writes/reads/evictions, byte-identical frames,"
echo "    and the 8-reader miss herd collapsing to one evaluation)"
cargo test -q -p semex-serve --test cache_equiv_prop

echo "==> e14 smoke (multi-tenant serving at CI scale"
echo "    -> target/bench-smoke/BENCH_tenants.json)"
cargo run --release -q -p semex-bench --bin experiments -- e14-smoke

echo "==> e15 smoke (binary snapshot cold opens at CI scale"
echo "    -> target/bench-smoke/BENCH_snapshot.json)"
cargo run --release -q -p semex-bench --bin experiments -- e15-smoke

echo "==> e16 smoke (read-cache hit rate, latency, and coalescing at CI scale"
echo "    -> target/bench-smoke/BENCH_cache.json)"
cargo run --release -q -p semex-bench --bin experiments -- e16-smoke

echo "==> cluster fault sweep (primary crashed at every journal I/O op and every"
echo "    replication-stream send; promotion must land on an acked boundary, and"
echo "    follower reads must be byte-identical to the primary at equal epochs)"
cargo test -q -p semex-replica --test cluster_sweep -- --nocapture
cargo test -q -p semex-replica --test replica_e2e

echo "==> e17 smoke (1 primary + 1 follower over sockets: catch-up, byte-identical"
echo "    replica reads, synchronous write-ack cost"
echo "    -> target/bench-smoke/BENCH_replica.json)"
cargo run --release -q -p semex-bench --bin experiments -- e17-smoke

echo "==> query equivalence suite (path engine vs brute-force reference at every"
echo "    thread count, cursor pages stitching to the unpaginated run, joins,"
echo "    neighbourhoods, derived associations and shortest paths vs the browse"
echo "    oracles, and the three-hop wire query with resumable cursors and typed"
echo "    errors)"
cargo test -q -p semex-query --test query_equiv_prop
cargo test -q -p semex-serve --test path_query
cargo test -q -p semex-serve --test protocol_prop

echo "==> e18 smoke (path-query latency vs size/hops, thread scaling, and the"
echo "    over-the-wire cache uplift at CI scale"
echo "    -> target/bench-smoke/BENCH_query.json)"
cargo run --release -q -p semex-bench --bin experiments -- e18-smoke

echo "==> cargo doc (no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo bench --no-run (benches must keep compiling)"
cargo bench --workspace --no-run

echo "==> perfbench compiles against the working tree (cargo check --offline of"
echo "    a copy under target/: building perfbench in place rewrites its"
echo "    lockfile, and no file under perfbench/ may change)"
bench_tree=target/perfbench-check/tree
rm -rf "$bench_tree"
mkdir -p "$bench_tree/perfbench"
cp -a Cargo.toml crates third_party "$bench_tree"/
cp -a perfbench/Cargo.toml perfbench/Cargo.lock perfbench/src "$bench_tree/perfbench"/
cargo check --offline --quiet --manifest-path "$bench_tree/perfbench/Cargo.toml" \
    --target-dir target/perfbench-check/target

echo "==> OK"
