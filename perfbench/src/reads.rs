//! `wire_reads`: several durable spaces behind `serve_tenants`, a read
//! cache, and a pool budget that keeps only some spaces resident. One
//! connection replays a seeded zipf stream of browse steps.
//!
//! A browse step is what a user does with one keyword: Search it, Browse
//! and View its top hit, and follow an association path from that hit.
//! Steps are classified from the server's own counters — the pool's cold
//! opens and the `Stats` cache block, read between steps — as all cache
//! misses on a resident space, all cache hits, a cold activation, or mixed.
//! Each mode is timed apart, so no median mixes modes.

use crate::corpus::{self, Hop, Labels, PairCounts, Zipf};
use crate::stats::{Hist, Outcome, Samples};
use crate::wire::{decode, fnv, Wire};
use crate::{alloc, trace, Args};
use rand::rngs::StdRng;
use rand::SeedableRng;
use semex_core::{DurableSemex, JournalConfig, Semex, SemexBuilder, SemexConfig, Snapshot};
use semex_corpus::GroundTruth;
use semex_serve::protocol::{Request, Response};
use semex_serve::{serve_tenants, PoolConfig, ServeConfig, TenantId, TenantRegistry};
use semex_store::ObjectId;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spaces served, each a quarter of the default desktop (about 600
/// objects) so set-up stays short.
const TENANTS: usize = 6;
/// Space `t` is generated from corpus seed `SPACE_SEEDS + t` whatever the
/// run's seed: one space's build takes from 0.2 s to 0.6 s depending on
/// its corpus, so spaces drawn from the run's seed would make `setup_s`
/// follow the seed. The run's seed draws the request stream and which
/// spaces and words are hot.
const SPACE_SEEDS: u64 = 1000;
/// Set-ups before the timed phase and after it; slow spells of a shared
/// machine last seconds, so set-ups on both sides of the phase are less
/// likely to all fall in one.
const SETUP_BEFORE: usize = 2;
const SETUP_AFTER: usize = 1;
const SCALE: f64 = 0.25;
/// The pool budget holds this many average spaces.
const RESIDENT: f64 = 3.5;
/// Read-cache budget: small enough that the zipf tail keeps missing.
const CACHE_BYTES: usize = 2 << 20;
/// Browse steps per visit to a space.
const SESSION: usize = 16;
/// Top-k of each Search, and the page size of each PathQuery.
const K: usize = 10;
const PAGE: usize = 50;
/// Requests per space whose answers are checked against the oracles.
const KEEP: usize = 300;

/// The association path followed from a hit, by the hit's class.
fn hops_for(class: &str) -> Option<&'static [Hop]> {
    const fn h(forward: bool, assoc: &'static str) -> Hop {
        Hop { forward, assoc }
    }
    const PERSON: [Hop; 2] = [h(false, "Sender"), h(true, "Recipient")];
    const PUBLICATION: [Hop; 2] = [h(true, "AuthoredBy"), h(false, "AuthoredBy")];
    const MESSAGE: [Hop; 2] = [h(true, "Sender"), h(false, "Sender")];
    const VENUE: [Hop; 2] = [h(false, "PublishedIn"), h(true, "AuthoredBy")];
    const ORGANIZATION: [Hop; 2] = [h(false, "WorksFor"), h(false, "AuthoredBy")];
    Some(match class {
        "Person" => &PERSON,
        "Publication" => &PUBLICATION,
        "Message" => &MESSAGE,
        "Venue" => &VENUE,
        "Organization" => &ORGANIZATION,
        _ => return None,
    })
}

struct Space {
    name: String,
    vocab: Vec<String>,
    /// Top hit of each vocabulary word, fixed because nothing is written.
    top: Vec<ObjectId>,
    hops: Vec<&'static [Hop]>,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Search,
    Browse,
    View,
    Path,
}

const KINDS: [Kind; 4] = [Kind::Search, Kind::Browse, Kind::View, Kind::Path];

fn request(kind: Kind, word: &str, top: ObjectId, hops: &[Hop]) -> Request {
    match kind {
        Kind::Search => Request::Search {
            query: word.to_string(),
            k: K,
            exhaustive: false,
        },
        Kind::Browse => Request::Browse {
            query: word.to_string(),
        },
        Kind::View => Request::View {
            query: word.to_string(),
        },
        Kind::Path => Request::PathQuery {
            path: corpus::path_text(top, hops),
            page: PAGE,
            cursor: None,
        },
    }
}

/// The timed phase's latencies in µs, by mode. Histograms, allocated
/// before the phase, so recording them does not move `peak_alloc_mb`.
struct Modes {
    miss: [Hist; 4],
    hit: [Hist; 4],
    /// All-miss steps per space: spaces differ in answer sizes, so the
    /// figure weighs every space alike instead of following the hot one.
    step_miss: [Hist; TENANTS],
    step_hit: Hist,
    cold: Hist,
    resident_reads: Hist,
    mixed: usize,
}

impl Modes {
    fn new() -> Modes {
        Modes {
            miss: std::array::from_fn(|_| Hist::new()),
            hit: std::array::from_fn(|_| Hist::new()),
            step_miss: std::array::from_fn(|_| Hist::new()),
            step_hit: Hist::new(),
            cold: Hist::new(),
            resident_reads: Hist::new(),
            mixed: 0,
        }
    }
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    // Set-up is repeated before the phase and after it, and `setup_s` is
    // the mean over spaces of each space's median set-up: one build of one
    // space varies by a fifth or more between repetitions on a shared
    // two-core machine, and slow spells last seconds. The spaces of the
    // last set-up before the phase are served.
    let mut setup: [Samples; TENANTS] = Default::default();
    let served = work.join("served");
    let (mut registry, mut built) = set_up(&served, &mut setup);
    let objects = object_counts(&built);
    for _ in 1..SETUP_BEFORE {
        drop(built);
        (registry, built) = set_up(&served, &mut setup);
        out.check(object_counts(&built) == objects, || {
            format!(
                "a set-up has {:?} objects, the first {objects:?}",
                object_counts(&built)
            )
        });
    }
    let root = served.join("tenants");

    let mut spaces = Vec::new();
    let mut counts = PairCounts::default();
    let mut cost = 0usize;
    for (t, (durable, truth)) in built.into_iter().enumerate() {
        let name = format!("space{t}");
        let labels = Labels::of_directory(&served.join(format!("src{t}")), &truth);
        out.check(durable.store().slot_count() == labels.slots, || {
            format!(
                "{name}: reconciled build has {} slots, raw extraction {}",
                durable.store().slot_count(),
                labels.slots
            )
        });
        counts = counts.add(PairCounts::of(&labels, durable.store()));
        cost += semex_tenant::resident_cost(&durable);
        spaces.push(space_of(&name, &durable.snapshot()));
    }
    out.check(counts.cross_kind == 0, || {
        format!(
            "{} objects merge references of different kinds",
            counts.cross_kind
        )
    });

    let budget = (cost as f64 / TENANTS as f64 * RESIDENT) as usize;
    let handle = serve_tenants(
        registry,
        "127.0.0.1:0",
        ServeConfig {
            threads: 2,
            writer_threads: 1,
            ..ServeConfig::default()
        },
        PoolConfig {
            memory_budget: budget,
            cache_budget: CACHE_BYTES,
            create_missing: false,
            ..PoolConfig::default()
        },
    )
    .expect("start the server");
    let mut wire = Wire::connect(handle.addr());
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5eed_0001);
    let pick_space = Zipf::new(TENANTS);
    let words: Vec<Zipf> = spaces.iter().map(|s| Zipf::new(s.vocab.len())).collect();
    // Ranks are shuffled, over spaces and per space, so the seed decides
    // which spaces and words are hot.
    let mut hot: Vec<usize> = (0..TENANTS).collect();
    rand::seq::SliceRandom::shuffle(hot.as_mut_slice(), &mut rng);
    let ranks: Vec<Vec<usize>> = spaces
        .iter()
        .map(|s| {
            let mut r: Vec<usize> = (0..s.vocab.len()).collect();
            rand::seq::SliceRandom::shuffle(r.as_mut_slice(), &mut rng);
            r
        })
        .collect();

    // Everything the phase records is allocated here, at its final size:
    // the phase's heap peak is then the program's, whatever its speed.
    let mut modes = Modes::new();
    // Per space, by `word × 4 + kind`: hash of the first answer. Every
    // later answer to the same request (no writes, so the same epoch) must
    // be equal.
    let mut seen: Vec<Vec<Option<u64>>> = spaces
        .iter()
        .map(|s| vec![None; s.vocab.len() * KINDS.len()])
        .collect();
    // The first KEEP distinct requests of each space, asked again after
    // the phase and checked against the oracles.
    let mut kept: Vec<Vec<(Kind, usize)>> =
        (0..TENANTS).map(|_| Vec::with_capacity(KEEP)).collect();
    let mut epochs: Vec<Option<u64>> = vec![None; TENANTS];
    let mut cache_seen: Vec<(u64, u64)> = vec![(0, 0); TENANTS];
    let mut reads = 0u64;
    let mut busy = Duration::ZERO;

    alloc::reset_peak();
    let phase = Instant::now();
    while phase.elapsed().as_secs_f64() < args.seconds {
        let t = hot[pick_space.sample(&mut rng)];
        let space = &spaces[t];
        for _ in 0..SESSION {
            let w = ranks[t][words[t].sample(&mut rng)];
            let cold_before = handle.tenants().cold_opens;
            let mut lat = [Duration::ZERO; 4];
            for (i, kind) in KINDS.into_iter().enumerate() {
                let req = request(kind, &space.vocab[w], space.top[w], space.hops[w]);
                lat[i] = trace::span("wire.read", || wire.call(&space.name, req));
                reads += 1;
                out.attempted += 1;
                let h = fnv(&wire.payload);
                let first = &mut seen[t][w * KINDS.len() + i];
                if first.is_none() {
                    if let Response::Error { kind: e, message } = wire.response() {
                        out.failed += 1;
                        out.errors.push(format!(
                            "{kind:?} {:?} refused: {e:?} {message}",
                            space.vocab[w]
                        ));
                    }
                    if kept[t].len() < KEEP {
                        kept[t].push((kind, w));
                    }
                }
                out.check(*first.get_or_insert(h) == h, || {
                    format!(
                        "{} {kind:?} {:?}: answer bytes differ from the first answer",
                        space.name, space.vocab[w]
                    )
                });
            }
            busy += lat.iter().sum::<Duration>();
            let cold = handle.tenants().cold_opens > cold_before;
            wire.call(&space.name, Request::Stats);
            let (hits, misses, epoch) = match wire.response() {
                Response::Stats {
                    epoch,
                    cache: Some(c),
                    ..
                } => (c.hits, c.misses, epoch),
                other => {
                    out.check(false, || format!("Stats answered {other:?}"));
                    continue;
                }
            };
            out.check(epochs[t].is_none_or(|e| e == epoch), || {
                format!(
                    "{} moved from epoch {:?} to {epoch} with no writes",
                    space.name, epochs[t]
                )
            });
            epochs[t] = Some(epoch);
            // A cold activation purges the space's cache entries but keeps
            // its counters, so deltas stay meaningful across evictions.
            let (dh, dm) = (hits - cache_seen[t].0, misses - cache_seen[t].1);
            cache_seen[t] = (hits, misses);
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            let step = us(lat.iter().sum());
            if cold {
                modes.cold.push(us(lat[0]));
            } else if dm == 4 {
                modes.step_miss[t].push(step);
                (0..4).for_each(|i| modes.miss[i].push(us(lat[i])));
            } else if dh == 4 {
                modes.step_hit.push(step);
                (0..4).for_each(|i| modes.hit[i].push(us(lat[i])));
            } else {
                modes.mixed += 1;
            }
            if !cold {
                lat.iter().for_each(|&l| modes.resident_reads.push(us(l)));
            }
        }
    }
    let peak = alloc::peak_mib();
    let pool = handle.tenants();
    let mut totals = (0, 0, 0);
    for s in &spaces {
        wire.call(&s.name, Request::Stats);
        if let Response::Stats { cache: Some(c), .. } = wire.response() {
            totals = (
                totals.0 + c.hits,
                totals.1 + c.misses,
                totals.2 + c.evictions,
            );
        }
    }
    // Ask the kept requests again: nothing was written, so each answer
    // must repeat the phase's bytes, and it is then checked against
    // oracles on the same spaces, reopened from their journals.
    let mut answers: Vec<Vec<Vec<u8>>> = vec![Vec::new(); TENANTS];
    for (t, space) in spaces.iter().enumerate() {
        for &(kind, w) in &kept[t] {
            wire.call(
                &space.name,
                request(kind, &space.vocab[w], space.top[w], space.hops[w]),
            );
            let i = w * KINDS.len() + kind as usize;
            out.check(seen[t][i] == Some(fnv(&wire.payload)), || {
                format!(
                    "{} {kind:?} {:?}: answer bytes after the phase differ from the phase's",
                    space.name, space.vocab[w]
                )
            });
            answers[t].push(wire.payload.clone());
        }
    }
    drop(wire);
    handle.shutdown();
    let report = handle.join();
    let disk = corpus::dir_bytes(&root) as f64 / (1024.0 * 1024.0);

    // The server's thread count for one path query.
    let path_threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4);
    // In-process time of each kept request, by kind (traced runs only).
    let mut inproc: [Samples; 4] = Default::default();
    for (t, space) in spaces.iter().enumerate() {
        let copy = work.join("reopen");
        corpus::copy_dir(&root.join(&space.name), &copy);
        let (durable, _) = trace::span("journal.open", || {
            Semex::open_durable(&copy, SemexConfig::default())
        })
        .expect("reopen a tenant space");
        let snap = durable.snapshot();
        for (&(kind, w), payload) in kept[t].iter().zip(&answers[t]) {
            let word = &space.vocab[w];
            let resp = decode(payload);
            if let Some(e) = epochs[t] {
                out.check(response_epoch(&resp) == Some(e), || {
                    format!(
                        "{} answered at {:?}, stats said {e}",
                        space.name,
                        response_epoch(&resp)
                    )
                });
            }
            let asked = Asked {
                kind,
                word,
                top: space.top[w],
                hops: space.hops[w],
            };
            verify(&snap, &asked, &resp, &mut out);
            if trace::enabled() {
                inproc[kind as usize].push(in_process(&snap, &asked, path_threads));
            }
        }
    }

    let names = ["search", "browse", "view", "pathq"];
    for (i, n) in names.iter().enumerate() {
        out.note(
            format!("{n}_miss_p50_us"),
            modes.miss[i].median(),
            "us",
            modes.miss[i].len(),
        );
        out.note(
            format!("{n}_hit_p50_us"),
            modes.hit[i].median(),
            "us",
            modes.hit[i].len(),
        );
    }
    out.note(
        "step_hit_p50_ms",
        modes.step_hit.median() / 1e3,
        "ms",
        modes.step_hit.len(),
    );
    out.note(
        "cold_open_ms",
        modes.cold.median() / 1e3,
        "ms",
        modes.cold.len(),
    );
    if let Some((q, v)) = modes.resident_reads.tail() {
        out.note(format!("read_{q}_us"), v, "us", modes.resident_reads.len());
    }
    out.note("mixed_steps", modes.mixed as f64, "count", 1);
    out.note("resident_budget_spaces", RESIDENT, "count", 1);

    if trace::enabled() {
        for (metric, name) in [
            ("index.search_us", "index.search"),
            ("query.plan_us", "query.plan"),
            ("query.exec_us", "query.exec"),
            ("browse.summary_us", "browse.summary"),
        ] {
            let s = Samples::from(trace::durations_us(name));
            out.metric(metric, s.median(), "us", s.len());
        }
        out.metric(
            "serve.search_overhead_us",
            modes.miss[0].median() - inproc[0].median(),
            "us",
            modes.miss[0].len(),
        );
        out.metric(
            "serve.pathq_overhead_us",
            modes.miss[3].median() - inproc[3].median(),
            "us",
            modes.miss[3].len(),
        );
        out.metric(
            "serve.browse_overhead_us",
            modes.miss[1].median() - inproc[1].median(),
            "us",
            modes.miss[1].len(),
        );
        out.metric("cache.hit_us", cache_hit_us(), "us", 1000);
        out.metric("cache.hits", totals.0 as f64, "count", 1);
        out.metric("cache.misses", totals.1 as f64, "count", 1);
        out.metric("cache.evictions", totals.2 as f64, "count", 1);
        let mut cold_us = Samples::default();
        report
            .tenants
            .cold_open_us
            .iter()
            .for_each(|&u| cold_us.push(u as f64 / 1e3));
        out.metric("tenant.cold_open_ms", cold_us.median(), "ms", cold_us.len());
        out.metric("tenant.cold_opens", pool.cold_opens as f64, "count", 1);
        out.metric("tenant.evictions", pool.evictions as f64, "count", 1);
        let open = Samples::from(trace::durations_us("journal.open"));
        out.metric("journal.open_ms", open.median() / 1e3, "ms", open.len());
    }

    let again = work.join("again");
    for _ in 0..SETUP_AFTER {
        let rebuilt = object_counts(&set_up(&again, &mut setup).1);
        out.check(rebuilt == objects, || {
            format!("a set-up after the phase has {rebuilt:?} objects, the first {objects:?}")
        });
    }
    let _ = std::fs::remove_dir_all(&again);

    let misses: usize = modes.step_miss.iter().map(Hist::len).sum();
    let op = modes.step_miss.iter().map(Hist::median).sum::<f64>() / TENANTS as f64 / 1e3;
    // Spaces of one size differ up to threefold in build time; the mean
    // counts every one of the spaces, where a median would follow one.
    let setup_s = setup.iter().map(Samples::median).sum::<f64>() / TENANTS as f64;
    out.metric(
        "setup_s",
        setup_s,
        "s",
        (SETUP_BEFORE + SETUP_AFTER) * TENANTS,
    );
    out.metric("op_p50_ms", op, "ms", misses);
    out.metric(
        "ops_per_s",
        reads as f64 / busy.as_secs_f64(),
        "1/s",
        reads as usize,
    );
    out.metric("peak_alloc_mb", peak, "MiB", 1);
    out.metric("disk_mb", disk, "MiB", 1);
    out.metric("recon_f1", counts.f1(), "ratio", 1);
    let fewest = modes.step_miss.iter().map(Hist::len).min().unwrap_or(0);
    out.check(fewest >= 20 && modes.cold.len() >= 10, || {
        format!(
            "too few samples: {fewest} miss steps on the quietest space, {} cold steps",
            modes.cold.len()
        )
    });
    out
}

/// One set-up: every space's sources generated and written under `dir`,
/// built, and put under a journal in a tenant registry at `dir/tenants`.
/// Each space's time is added to `times`.
fn set_up(
    dir: &Path,
    times: &mut [Samples; TENANTS],
) -> (TenantRegistry, Vec<(DurableSemex, GroundTruth)>) {
    let _ = std::fs::remove_dir_all(dir);
    let registry = TenantRegistry::open(dir.join("tenants")).expect("open tenant root");
    let mut spaces = Vec::new();
    for (t, times) in times.iter_mut().enumerate() {
        let started = Instant::now();
        let src = dir.join(format!("src{t}"));
        let c = corpus::personal(SPACE_SEEDS + t as u64, SCALE);
        corpus::write_files(&c.files, &src);
        let id = TenantId::new(&format!("space{t}")).expect("valid tenant id");
        let durable = SemexBuilder::new()
            .add_directory("desktop", &src)
            .build()
            .expect("build a tenant space")
            .into_durable(registry.dir(&id), JournalConfig::default())
            .expect("put the tenant under a journal");
        times.push(started.elapsed().as_secs_f64());
        spaces.push((durable, c.truth));
    }
    (registry, spaces)
}

fn object_counts(spaces: &[(DurableSemex, GroundTruth)]) -> Vec<usize> {
    spaces
        .iter()
        .map(|(d, _)| d.store().object_count())
        .collect()
}

fn space_of(name: &str, snap: &Snapshot) -> Space {
    let mut space = Space {
        name: name.to_string(),
        vocab: Vec::new(),
        top: Vec::new(),
        hops: Vec::new(),
    };
    for word in corpus::vocabulary(snap.store()) {
        let Some(hit) = snap.search(&word, 1).into_iter().next() else {
            continue;
        };
        if let Some(hops) = hops_for(&hit.class) {
            space.vocab.push(word);
            space.top.push(hit.object);
            space.hops.push(hops);
        }
    }
    space
}

fn response_epoch(r: &Response) -> Option<u64> {
    match r {
        Response::Hits { epoch, .. }
        | Response::PathPage { epoch, .. }
        | Response::View { epoch, .. }
        | Response::Links { epoch, .. } => Some(*epoch),
        _ => None,
    }
}

/// One request of a browse step, as the oracles need it.
struct Asked<'a> {
    kind: Kind,
    word: &'a str,
    top: ObjectId,
    hops: &'static [Hop],
}

/// Check one wire answer against computations made apart from the server.
fn verify(snap: &Snapshot, asked: &Asked, resp: &Response, out: &mut Outcome) {
    let &Asked {
        kind,
        word,
        top,
        hops,
    } = asked;
    let store = snap.store();
    match (kind, resp) {
        (Kind::Search, Response::Hits { hits, .. }) => {
            let want = snap.search_exhaustive(word, K);
            let same = hits.len() == want.len()
                && hits.iter().zip(&want).all(|(h, w)| {
                    h.object == w.object.0
                        && h.label == w.label
                        && h.class == w.class
                        && (h.score - w.score).abs() <= 1e-9 * w.score.abs().max(1.0)
                });
            out.check(same, || {
                format!("Search {word:?}: wire {hits:?} exhaustive {want:?}")
            });
        }
        (Kind::Path, Response::PathPage { total, items, .. }) => {
            let want = corpus::walk(store, top, hops);
            let got: Vec<u64> = items.iter().map(|i| i.object).collect();
            let want_page: Vec<u64> = want.iter().take(PAGE).map(|o| o.0).collect();
            out.check(*total == want.len() && got == want_page, || {
                format!(
                    "PathQuery from {top:?}: wire total {total} {got:?}, walk {} {want_page:?}",
                    want.len()
                )
            });
        }
        (Kind::Browse, Response::Links { object, links, .. }) => {
            let want = corpus::triple_counts(store, ObjectId(*object));
            out.check(*object == top.0 && *links == want, || {
                format!(
                    "Browse {word:?}: wire {object} {links:?}, triples {} {want:?}",
                    top.0
                )
            });
        }
        (Kind::View, Response::View { object, text, .. }) => {
            out.check(
                *object == top.0 && *text == snap.view(top).to_string(),
                || format!("View {word:?}: wire object {object}, expected {}", top.0),
            );
        }
        (kind, other) => out.check(false, || format!("{kind:?} {word:?} answered {other:?}")),
    }
}

/// The same request answered in-process on the same snapshot, in µs. The
/// layers' own calls are spans: `index.search`, `browse.summary`,
/// `query.plan` (parse and optimize) and `query.exec`.
fn in_process(snap: &Snapshot, asked: &Asked, threads: usize) -> f64 {
    let &Asked {
        kind,
        word,
        top,
        hops,
    } = asked;
    let store = snap.store();
    let t = Instant::now();
    match kind {
        Kind::Search => {
            std::hint::black_box(trace::span("index.search", || snap.search(word, K)));
        }
        Kind::Browse => {
            let hit = snap.search(word, 1);
            std::hint::black_box(trace::span("browse.summary", || {
                semex_query::summary::neighborhood_summary(store, hit[0].object)
            }));
        }
        Kind::View => {
            let hit = snap.search(word, 1);
            std::hint::black_box(snap.view(hit[0].object).to_string());
        }
        Kind::Path => {
            let text = corpus::path_text(top, hops);
            let plan = trace::span("query.plan", || {
                semex_query::parse::parse(store, &text).map(|p| p.optimize())
            })
            .expect("the benchmark's paths parse");
            let cfg = semex_query::exec::ExecConfig {
                threads,
                ..Default::default()
            };
            let page = trace::span("query.exec", || {
                semex_query::exec::run_page(store, &plan, &cfg, 0, PAGE, None)
            });
            std::hint::black_box(page).expect("the benchmark's paths run");
        }
    }
    t.elapsed().as_secs_f64() * 1e6
}

/// `ReadCache::get_or_compute` on a key that is present, per call.
fn cache_hit_us() -> f64 {
    use semex_cache::{CacheConfig, CacheKey, ReadCache};
    use std::sync::Arc;
    let cache = ReadCache::new(CacheConfig::default());
    let key = CacheKey {
        tenant: "space0".into(),
        epoch: 1,
        request: "{\"search\":{\"query\":\"reconciliation\",\"k\":10}}".into(),
    };
    cache.get_or_compute(key.clone(), || Arc::new(vec![7u8; 2048]));
    let mut s = Samples::default();
    for _ in 0..1000 {
        let t = Instant::now();
        std::hint::black_box(cache.get_or_compute(key.clone(), || unreachable!("key is present")));
        s.push(t.elapsed().as_secs_f64() * 1e6);
    }
    s.median()
}
