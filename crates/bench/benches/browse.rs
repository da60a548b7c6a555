//! Criterion bench backing experiment E7: association browsing operations.

use criterion::{criterion_group, criterion_main, Criterion};
use semex_bench::extract_corpus;
use semex_corpus::{generate_personal, CorpusConfig};
use semex_model::names::{assoc, class, derived};
use semex_query::join::{query, Pattern, Term};
use semex_query::summary;
use semex_recon::{reconcile, ReconConfig, Variant};
use semex_store::{ObjectId, Store};

fn store() -> Store {
    let cfg = CorpusConfig {
        seed: 13,
        ..CorpusConfig::default()
    }
    .scaled_size(0.5);
    let mut store = extract_corpus(&generate_personal(&cfg));
    reconcile(&mut store, Variant::Full, &ReconConfig::default());
    store
}

fn people(store: &Store, n: usize) -> Vec<ObjectId> {
    let c = store.model().class(class::PERSON).unwrap();
    store.objects_of_class(c).take(n).collect()
}

fn bench_neighborhood(c: &mut Criterion) {
    let store = store();
    let ppl = people(&store, 50);
    c.bench_function("browse_neighborhood", |b| {
        b.iter(|| {
            let mut total = 0;
            for &p in &ppl {
                total += summary::neighborhood(&store, p).len();
            }
            total
        });
    });
}

fn bench_derived(c: &mut Criterion) {
    let store = store();
    let ppl = people(&store, 50);
    for name in [derived::CO_AUTHOR, derived::CORRESPONDED_WITH] {
        c.bench_function(format!("browse_derived_{name}"), |b| {
            b.iter(|| {
                let mut total = 0;
                for &p in &ppl {
                    total += summary::derived(&store, p, name).unwrap().len();
                }
                total
            });
        });
    }
}

fn bench_path(c: &mut Criterion) {
    let store = store();
    let ppl = people(&store, 20);
    c.bench_function("browse_path_between", |b| {
        b.iter(|| {
            let mut found = 0;
            for w in ppl.windows(2) {
                if summary::shortest_path(&store, w[0], w[1], 4).is_some() {
                    found += 1;
                }
            }
            found
        });
    });
}

fn bench_pattern_query(c: &mut Criterion) {
    let store = store();
    let authored = store.model().assoc(assoc::AUTHORED_BY).unwrap();
    let published = store.model().assoc(assoc::PUBLISHED_IN).unwrap();
    c.bench_function("browse_pattern_author_venue_join", |b| {
        b.iter(|| {
            query(
                &store,
                &[
                    Pattern::new(Term::var("pub"), authored, Term::var("p")),
                    Pattern::new(Term::var("pub"), published, Term::var("v")),
                ],
            )
            .map_or(0, |rows| rows.len())
        });
    });
}

criterion_group!(
    benches,
    bench_neighborhood,
    bench_derived,
    bench_path,
    bench_pattern_query
);
criterion_main!(benches);
