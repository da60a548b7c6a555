//! Pinned reconciliation reports: every variant, on three seeded
//! fifth-size desktops, at 1 and 2 threads, must report the merges,
//! iterations, memo hits and clusters recorded below. The figures were
//! taken from the string-based scorer that interning, pool deduplication
//! and the verdict memos replaced, so any drift in what the faster scorer
//! decides shows up here as a changed count or cluster hash.

mod common;

use common::extract_corpus;
use semex::corpus::{generate_personal, CorpusConfig};
use semex::recon::{reconcile, ReconConfig, ReconReport, Variant};

/// `(seed, variant, merges, iterations, memo_hits, cluster hash)`.
const PINNED: &[(u64, &str, usize, usize, usize, u64)] = &[
    (3000, "attr-only", 229, 2475, 0, 0x6b2cf55376fe5b62),
    (3000, "context", 238, 2475, 0, 0x04d280b49cf81c28),
    (3000, "propagation", 241, 4095, 0, 0x54b95bca0cb1df1f),
    (3000, "full", 237, 3999, 280, 0x02d235ea4ac00619),
    (3001, "attr-only", 252, 2378, 0, 0xe59f4a230978ef8c),
    (3001, "context", 260, 2378, 0, 0x7009eca023a5c09e),
    (3001, "propagation", 264, 3372, 0, 0x601811560f3de3c8),
    (3001, "full", 261, 3220, 379, 0xe58f3a4204542e01),
    (3002, "attr-only", 220, 1876, 0, 0x126c78dcacca5933),
    (3002, "context", 229, 1876, 0, 0x2386e1c9c74cdff4),
    (3002, "propagation", 231, 2674, 0, 0x206c6bdc77934fc2),
    (3002, "full", 228, 2521, 226, 0x2474688530117906),
];

/// FNV-1a over the clusters' object ids, with a separator per cluster.
fn cluster_hash(r: &ReconReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for cluster in &r.clusters {
        for o in cluster {
            eat(o.0);
        }
        eat(u64::MAX);
    }
    h
}

#[test]
fn reports_match_the_string_scorer() {
    let mut got = Vec::new();
    for seed in [3000u64, 3001, 3002] {
        let corpus = generate_personal(
            &CorpusConfig {
                seed,
                ..CorpusConfig::default()
            }
            .scaled_size(0.2),
        );
        let store = extract_corpus(&corpus);
        for variant in Variant::ALL {
            let mut seen = None;
            for threads in [1, 2] {
                let mut st = store.clone();
                let cfg = ReconConfig {
                    threads,
                    ..ReconConfig::default()
                };
                let r = reconcile(&mut st, variant, &cfg);
                let row = (
                    seed,
                    variant.name(),
                    r.merges,
                    r.iterations,
                    r.memo_hits,
                    cluster_hash(&r),
                );
                match seen {
                    None => seen = Some(row),
                    Some(first) => assert_eq!(first, row, "{variant} differs at {threads} threads"),
                }
            }
            got.push(seen.expect("ran at least once"));
        }
    }
    let table: String = got
        .iter()
        .map(|r| {
            format!(
                "    ({}, {:?}, {}, {}, {}, 0x{:016x}),\n",
                r.0, r.1, r.2, r.3, r.4, r.5
            )
        })
        .collect();
    assert_eq!(got, PINNED, "reports drifted; now:\n{table}");
}
