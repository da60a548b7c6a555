//! `mail_ingest`: a durable space behind the server takes new mail —
//! interleaved with contact cards, CSV integrations and user feedback — as
//! closed-loop writes on one connection, while a second connection keeps
//! reading.
//!
//! The run is a series of *episodes*: each starts a fresh copy of the
//! set-up space under a new tenant name and streams the same fixed rounds
//! of writes into it, so every episode does the same work whatever the
//! program's speed, and the space never outgrows the desktop by more than
//! one episode's mail. The reader is paced: on two cores, a closed-loop
//! reader keeps both busy (its client thread and its server worker), and
//! the writer's acks then measure the scheduler more than the write path.
//!
//! Each round's AssertDistinct is a probe of user feedback surviving a
//! reopen: after an episode's stream the space is evicted and reactivated
//! from its journal, a contact card carrying both probed addresses is
//! ingested, and the probe fails if the two people now resolve to one
//! object.

use crate::corpus::{self, Labels, PairCounts};
use crate::stats::{Hist, Outcome, Samples};
use crate::wire::Wire;
use crate::{alloc, trace, Args};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semex_core::{JournalConfig, Semex, SemexBuilder, SemexConfig, SourceSpec};
use semex_corpus::CorpusConfig;
use semex_model::names::{attr, class};
use semex_serve::protocol::{IngestFormat, Request, Response};
use semex_serve::{serve_tenants, PoolConfig, ServeConfig, ServeHandle, TenantRegistry};
use semex_store::{ObjectId, Store};
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Desktop size relative to the generator's default, and the mail it
/// keeps before the stream starts. Every ingest's incremental
/// reconciliation walks the whole space, so a space much larger than the
/// 2 MiB per-core cache spreads ack latency with the shared cache's load.
const SCALE: f64 = 0.25;
const BASE_MESSAGES: usize = 250;
/// One round: seventeen messages, two contact cards, two CSV tables, two
/// AssertSame and one AssertDistinct probe, in this order.
const ROUND: [Write; 24] = {
    use Write::*;
    [
        Mail, Mail, Mail, Card, Mail, Mail, Csv, Mail, Same, Mail, Mail, Mail, //
        Mail, Mail, Mail, Card, Mail, Mail, Csv, Mail, Same, Mail, Mail, Distinct,
    ]
};
const MAIL_PER_ROUND: usize = 17;
/// Rounds in one episode's stream.
const ROUNDS: usize = 8;
/// Reads are due every 500 µs (2,000 per second).
const READ_INTERVAL: Duration = Duration::from_micros(500);
/// The reader's episode while no stream runs.
const PAUSED: usize = usize::MAX;
/// Desks (generated desktops, each with its own held-out mail) the
/// episodes rotate over: ack latency differs between desktops, so the
/// figure averages over several instead of following one seed's desktop.
const DESKS: usize = 4;
/// Desk `d` is generated from corpus seed `DESK_SEEDS + d` whatever the
/// run's seed: one desk's build takes from 0.2 s to 0.6 s depending on its
/// corpus, so desks drawn from the run's seed would make `setup_s` and the
/// ack latency follow the seed. The run's seed draws each desk's cards,
/// tables, feedback pairs and probes, and the reader's queries.
const DESK_SEEDS: u64 = 1000;
/// Set-ups before the timed phase and after it; slow spells of a shared
/// machine last seconds, so set-ups on both sides of the phase are less
/// likely to all fall in one.
const SETUP_BEFORE: usize = 3;
const SETUP_AFTER: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Write {
    Mail,
    Card,
    Csv,
    Same,
    Distinct,
}

/// One desktop: its set-up space, ground truth, people and write stream.
struct Desk {
    base: PathBuf,
    labels: Labels,
    people: Vec<Person>,
    probes: Vec<(usize, usize)>,
    stream: Vec<(Write, Request)>,
    vocab: Vec<String>,
    objects: usize,
}

impl Desk {
    /// Build desk `d`'s space under `dir` (timed into `setup`) and draw
    /// its write stream from `seed`.
    fn set_up(d: usize, seed: u64, dir: &Path, setup: &mut Samples, out: &mut Outcome) -> Desk {
        let _ = std::fs::remove_dir_all(dir);
        let src = dir.join("src");
        let base = dir.join("base");
        let started = Instant::now();
        let c = semex_corpus::generate_personal(&CorpusConfig {
            seed: DESK_SEEDS + d as u64,
            messages: BASE_MESSAGES + MAIL_PER_ROUND * ROUNDS,
            ..CorpusConfig::default().scaled_size(SCALE)
        });
        let (files, held) = corpus::hold_out_mail(&c, MAIL_PER_ROUND * ROUNDS);
        corpus::write_files(&files, &src);
        let durable = SemexBuilder::new()
            .add_directory("desktop", &src)
            .build()
            .expect("build the desktop space")
            .into_durable(&base, JournalConfig::default())
            .expect("put the space under a journal");
        setup.push(started.elapsed().as_secs_f64());

        let labels = Labels::of_directory(&src, &c.truth);
        let store = durable.store();
        out.check(store.slot_count() == labels.slots, || {
            format!(
                "desk {d}: reconciled build has {} slots, raw extraction {}",
                store.slot_count(),
                labels.slots
            )
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0002);
        let people = people(store, &labels);
        let missed = missed_merges(store, &labels);
        let pairs = probe_pairs(&people, &mut rng);
        let mut same = 0;
        let mut stream = Vec::new();
        let mut probes = Vec::new();
        let mut mail = held.iter();
        for r in 0..ROUNDS {
            for w in ROUND {
                let req = match w {
                    Write::Mail => {
                        let (_, text) = mail.next().expect("held-out mail for every round");
                        Request::Ingest {
                            format: IngestFormat::Mbox,
                            name: format!("incoming-{}", stream.len()),
                            content: text.clone(),
                        }
                    }
                    Write::Card => {
                        let p = &c.world.people[rng.gen_range(0..c.world.people.len())];
                        Request::Ingest {
                            format: IngestFormat::Vcard,
                            name: format!("card-{r}"),
                            content: format!(
                                "BEGIN:VCARD\nVERSION:3.0\nFN:{}\nEMAIL:{}\nTEL:+1-555-01{:02}\nEND:VCARD\n",
                                p.canonical_name(),
                                p.emails[0],
                                r % 100
                            ),
                        }
                    }
                    Write::Csv => {
                        let mut csv = String::from("name,email\n");
                        for _ in 0..2 {
                            let p = &c.world.people[rng.gen_range(0..c.world.people.len())];
                            csv.push_str(&format!("{},{}\n", p.canonical_name(), p.emails[0]));
                        }
                        Request::IntegrateCsv {
                            name: format!("table-{r}"),
                            csv,
                        }
                    }
                    Write::Same => {
                        same += 1;
                        let (a, b) = missed
                            .get(same % missed.len().max(1))
                            .copied()
                            .unwrap_or_else(|| {
                                let o = people[same % people.len()].obj;
                                (o, o)
                            });
                        Request::AssertSame { a: a.0, b: b.0 }
                    }
                    Write::Distinct => {
                        // Probes never share a person, so one probe's card
                        // cannot chain into another's pair.
                        let (a, b) = pairs[r % pairs.len()];
                        probes.push((a, b));
                        Request::AssertDistinct {
                            a: people[a].obj.0,
                            b: people[b].obj.0,
                        }
                    }
                };
                stream.push((w, req));
            }
        }
        let vocab = corpus::vocabulary(store);
        Desk {
            objects: store.object_count(),
            base,
            labels,
            people,
            probes,
            stream,
            vocab,
        }
    }
}

struct Person {
    obj: ObjectId,
    label: u64,
    name: String,
    email: String,
}

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let root = work.join("tenants");
    let registry = TenantRegistry::open(&root).expect("open tenant root");
    // Set-up is repeated before the phase and after it, and `setup_s` is
    // the mean over desks of each desk's median set-up: one build of one
    // desk varies by a fifth or more between repetitions on a shared
    // two-core machine, and slow spells last seconds. The desks of the last
    // set-up before the phase stream.
    let mut setup: [Samples; DESKS] = Default::default();
    let set_up = |dir: &Path, setup: &mut [Samples; DESKS], out: &mut Outcome| -> Vec<Desk> {
        setup
            .iter_mut()
            .enumerate()
            .map(|(d, times)| {
                Desk::set_up(
                    d,
                    args.seed.wrapping_mul(1000).wrapping_add(d as u64),
                    &dir.join(format!("desk{d}")),
                    times,
                    out,
                )
            })
            .collect()
    };
    let objects = |desks: &[Desk]| desks.iter().map(|d| d.objects).collect::<Vec<_>>();
    let mut desks = set_up(work, &mut setup, &mut out);
    let built = objects(&desks);
    for _ in 1..SETUP_BEFORE {
        desks = set_up(work, &mut setup, &mut out);
        out.check(objects(&desks) == built, || {
            format!(
                "a set-up has {:?} objects, the first {built:?}",
                objects(&desks)
            )
        });
    }
    let vocab: Vec<String> = desks
        .iter()
        .flat_map(|d| d.vocab.iter().cloned())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();

    let handle = serve_tenants(
        registry,
        "127.0.0.1:0",
        ServeConfig {
            threads: 2,
            writer_threads: 1,
            ..ServeConfig::default()
        },
        PoolConfig {
            create_missing: false,
            ..PoolConfig::default()
        },
    )
    .expect("start the server");
    let addr = handle.addr();
    let mut writer = Wire::connect(addr);

    let gate = ReadGate {
        stop: AtomicBool::new(false),
        episode: AtomicUsize::new(PAUSED),
        idle: AtomicBool::new(true),
    };
    // Ack latencies in µs per desk, allocated at their final size so the
    // phase's heap peak is the program's whatever its speed.
    let mut acks: Vec<Hist> = vec![Hist::new(); DESKS];
    let mut episodes = 0;
    // Per desk, the highest heap during each of its streams. The checks
    // between streams (reopens of the journal in-process) are the
    // benchmark's, not the served path's, and fall outside the windows.
    let mut peaks: Vec<Samples> = vec![Samples::default(); DESKS];
    // Per desk, from its first episode: pair counts and MiB on disk.
    let mut first: Vec<Option<(PairCounts, f64)>> = vec![None; DESKS];
    let (reads, read_busy, read_errors) = std::thread::scope(|s| {
        let reader = s.spawn(|| read_loop(addr, &vocab, args.seed, &gate));
        // Stops the reader however this scope ends, a panic included, so
        // the scope's join cannot wait forever.
        let _stop = StopOnDrop(&gate.stop);
        let phase = Instant::now();
        // Whole rotations, so every desk streams equally often.
        while episodes % DESKS != 0 || episodes == 0 || phase.elapsed().as_secs_f64() < args.seconds
        {
            let d = episodes % DESKS;
            let desk = &desks[d];
            let tenant = format!("mail{episodes}");
            let dir = root.join(&tenant);
            corpus::copy_dir(&desk.base, &dir);
            // Activate the space before its stream: acks measure writes,
            // not the cold open.
            writer.call(&tenant, Request::Stats);
            alloc::reset_peak();
            gate.read(episodes);
            let acked = stream_episode(&mut writer, &tenant, &desk.stream, &mut acks[d], &mut out);
            gate.pause();
            peaks[d].push(alloc::peak_mib());
            let (counts, disk) = check_episode(
                &handle,
                &mut writer,
                &tenant,
                &dir,
                work,
                &desk.labels,
                &acked,
                &mut out,
            );
            out.failed += probe(&handle, &mut writer, &tenant, &dir, desk, &mut out);
            let _ = std::fs::remove_dir_all(&dir);
            match first[d] {
                Some((c, _)) => {
                    out.check(c.tp == counts.tp && c.clustered == counts.clustered, || {
                        format!(
                            "episode {episodes} of desk {d} clustered differently from its first"
                        )
                    })
                }
                None => first[d] = Some((counts, disk)),
            }
            episodes += 1;
        }
        gate.stop.store(true, Ordering::SeqCst);
        reader.join().expect("reader thread")
    });
    for e in read_errors {
        out.check(false, || e);
    }
    drop(writer);
    handle.shutdown();
    handle.join();
    let counts = first
        .iter()
        .map(|f| f.expect("every desk streamed").0)
        .fold(PairCounts::default(), PairCounts::add);
    out.check(counts.cross_kind == 0, || {
        format!(
            "{} objects merge references of different kinds",
            counts.cross_kind
        )
    });
    let disk = first
        .iter()
        .map(|f| f.expect("every desk streamed").1)
        .sum::<f64>()
        / DESKS as f64;
    let again = work.join("again");
    for _ in 0..SETUP_AFTER {
        let rebuilt = objects(&set_up(&again, &mut setup, &mut out));
        out.check(rebuilt == built, || {
            format!("a set-up after the phase has {rebuilt:?} objects, the first {built:?}")
        });
    }
    let _ = std::fs::remove_dir_all(&again);

    let all_acks = acks.iter().map(Hist::len).sum::<usize>();
    let op = acks.iter().map(Hist::median).sum::<f64>() / DESKS as f64;
    let mut pooled = Hist::new();
    acks.iter().for_each(|a| pooled.add(a));

    out.note("episodes", episodes as f64, "count", 1);
    out.note("probes", (episodes * ROUNDS) as f64, "count", 1);
    out.note("ingest_ack_p50_us", pooled.median(), "us", pooled.len());
    if let Some((q, v)) = pooled.tail() {
        out.note(format!("ingest_ack_{q}_us"), v, "us", pooled.len());
    }
    out.note("reads", reads as f64, "count", 1);

    if trace::enabled() {
        layers(&desks[0].base, &desks[0].stream, acks[0].median(), &mut out);
    }

    // Spaces of one size differ up to threefold in build time; the mean
    // counts every one of the desks, where a median would follow one.
    let setup_s = setup.iter().map(Samples::median).sum::<f64>() / DESKS as f64;
    out.metric(
        "setup_s",
        setup_s,
        "s",
        (SETUP_BEFORE + SETUP_AFTER) * DESKS,
    );
    out.metric("op_p50_ms", op / 1e3, "ms", all_acks);
    out.metric(
        "ops_per_s",
        reads as f64 / read_busy.as_secs_f64(),
        "1/s",
        reads as usize,
    );
    // The typical stream's peak, not the highest: the highest of more
    // streams is higher, and a faster program streams more often.
    let peak = peaks.iter().map(Samples::median).sum::<f64>() / DESKS as f64;
    out.metric("peak_alloc_mb", peak, "MiB", episodes);
    out.metric("disk_mb", disk, "MiB", 1);
    out.metric("recon_f1", counts.f1(), "ratio", DESKS);
    out
}

/// Stream one episode's writes in a closed loop; returns the Message-IDs
/// of the acked mail.
fn stream_episode(
    writer: &mut Wire,
    tenant: &str,
    stream: &[(Write, Request)],
    acks: &mut Hist,
    out: &mut Outcome,
) -> Vec<String> {
    let (mut last_epoch, mut last_ingest) = (0u64, 0u64);
    let mut acked = Vec::new();
    for (k, (w, req)) in stream.iter().enumerate() {
        let took = trace::span("wire.write", || writer.call(tenant, req.clone()));
        out.attempted += 1;
        let epoch = match writer.response() {
            Response::Ingested { epoch, .. }
            | Response::Integrated { epoch, .. }
            | Response::Asserted { epoch, .. } => epoch,
            other => {
                out.failed += 1;
                out.check(false, || format!("write {k} ({w:?}) answered {other:?}"));
                continue;
            }
        };
        out.check(epoch >= last_epoch, || {
            format!("write {k} acked epoch {epoch} after {last_epoch}")
        });
        last_epoch = last_epoch.max(epoch);
        if let (Write::Mail, Request::Ingest { content, .. }) = (w, req) {
            out.check(epoch > last_ingest, || {
                format!(
                    "ingest {k} acked epoch {epoch}, not above the previous ingest's {last_ingest}"
                )
            });
            last_ingest = epoch;
            acks.push(took.as_secs_f64() * 1e6);
            acked.push(message_id(content));
        }
    }
    acked
}

/// Evict `tenant`. The servicing worker may still hold the space for a
/// moment after the last ack, and eviction refuses a busy space, so retry
/// briefly.
fn evict(handle: &ServeHandle, tenant: &str, out: &mut Outcome) {
    let evicted = (0..500).any(|_| {
        handle.evict_tenant(tenant) || {
            std::thread::sleep(Duration::from_millis(10));
            false
        }
    });
    out.check(evicted, || format!("{tenant} could not be evicted"));
}

/// The episode's end state, as the server sees it and as a reopen of its
/// journal recovers it: returns the pair counts of the desktop's references
/// and the space's size on disk in MiB.
#[allow(clippy::too_many_arguments)]
fn check_episode(
    handle: &ServeHandle,
    writer: &mut Wire,
    tenant: &str,
    dir: &Path,
    work: &Path,
    labels: &Labels,
    acked: &[String],
    out: &mut Outcome,
) -> (PairCounts, f64) {
    writer.call(tenant, Request::Stats);
    let live_objects = match writer.response() {
        Response::Stats { objects, .. } => objects,
        other => panic!("Stats answered {other:?}"),
    };
    evict(handle, tenant, out);
    let disk = corpus::dir_bytes(dir) as f64 / (1024.0 * 1024.0);
    let copy = work.join("reopen");
    corpus::copy_dir(dir, &copy);
    let (reopened, _) =
        Semex::open_durable(&copy, SemexConfig::default()).expect("reopen the space");
    let counts = PairCounts::of(labels, reopened.store());
    out.check(counts.cross_kind == 0, || {
        format!(
            "{} objects merge references of different kinds",
            counts.cross_kind
        )
    });
    out.check(reopened.store().object_count() == live_objects, || {
        format!(
            "reopen has {} objects, the live space {live_objects}",
            reopened.store().object_count()
        )
    });
    let ids = message_ids(reopened.store());
    let lost = acked.iter().filter(|m| !ids.contains(*m)).count();
    out.check(lost == 0, || {
        format!("{lost} acked messages missing after reopen")
    });
    (counts, disk)
}

/// Reactivate the evicted space from its journal with, for every probed
/// pair, a card carrying the first person's name and both addresses; then
/// count the pairs that now resolve to one object.
fn probe(
    handle: &ServeHandle,
    writer: &mut Wire,
    tenant: &str,
    dir: &Path,
    desk: &Desk,
    out: &mut Outcome,
) -> u64 {
    let people = &desk.people;
    for (i, &(a, b)) in desk.probes.iter().enumerate() {
        writer.call(
            tenant,
            Request::Ingest {
                format: IngestFormat::Vcard,
                name: format!("probe-card-{i}"),
                content: format!(
                    "BEGIN:VCARD\nVERSION:3.0\nFN:{}\nEMAIL:{}\nEMAIL:{}\nEND:VCARD\n",
                    people[a].name, people[a].email, people[b].email
                ),
            },
        );
        let ack = writer.response();
        out.check(matches!(ack, Response::Ingested { .. }), || {
            format!("probe card {i} answered {ack:?}")
        });
    }
    evict(handle, tenant, out);
    let (after, _) =
        Semex::open_durable(dir, SemexConfig::default()).expect("reopen after the probes");
    let store = after.store();
    desk.probes
        .iter()
        .filter(|&&(a, b)| store.resolve(people[a].obj) == store.resolve(people[b].obj))
        .count() as u64
}

struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Live people with an e-mail address and a ground-truth label.
fn people(store: &Store, labels: &Labels) -> Vec<Person> {
    let model = store.model();
    let c_person = model.class(class::PERSON).expect("builtin class");
    let a_email = model.attr(attr::EMAIL).expect("builtin attribute");
    let by_slot: HashMap<ObjectId, u64> = labels.by_slot.iter().copied().collect();
    store
        .objects_of_class(c_person)
        .filter_map(|obj| {
            let email = store.object(obj).strs(a_email).next()?.to_string();
            Some(Person {
                obj,
                label: *by_slot.get(&obj)?,
                name: store.label(obj),
                email,
            })
        })
        .collect()
}

/// Disjoint pairs of people with different ground-truth labels, in a
/// seeded order.
fn probe_pairs(people: &[Person], rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut order: Vec<usize> = (0..people.len()).collect();
    rand::seq::SliceRandom::shuffle(order.as_mut_slice(), rng);
    let mut pairs = Vec::new();
    while let Some(a) = order.pop() {
        if let Some(j) = order
            .iter()
            .rposition(|&b| people[b].label != people[a].label)
        {
            pairs.push((a, order.remove(j)));
        }
    }
    assert!(!pairs.is_empty(), "the desktop has people to probe");
    pairs
}

/// Pairs of live objects that share a ground-truth label: merges the
/// build missed, which AssertSame feedback supplies.
fn missed_merges(store: &Store, labels: &Labels) -> Vec<(ObjectId, ObjectId)> {
    let mut first: HashMap<u64, ObjectId> = HashMap::new();
    let mut pairs = Vec::new();
    let mut live = BTreeSet::new();
    for &(slot, label) in &labels.by_slot {
        let obj = store.resolve(slot);
        if !live.insert(obj) {
            continue;
        }
        match first.get(&label) {
            Some(&o) => pairs.push((o, obj)),
            None => {
                first.insert(label, obj);
            }
        }
    }
    pairs
}

fn message_id(mbox: &str) -> String {
    mbox.lines()
        .find_map(|l| l.strip_prefix("Message-ID: "))
        .expect("generated mail carries a Message-ID")
        .trim_matches(|c| c == '<' || c == '>')
        .to_string()
}

fn message_ids(store: &Store) -> BTreeSet<String> {
    let model = store.model();
    let c_message = model.class(class::MESSAGE).expect("builtin class");
    let a_mid = model.attr(attr::MESSAGE_ID).expect("builtin attribute");
    store
        .objects_of_class(c_message)
        .flat_map(|m| {
            store
                .object(m)
                .strs(a_mid)
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The second connection: fresh two-word searches at a fixed rate, to the
/// space whose stream is running, until the run ends. Returns reads, time
/// spent in them, and any refusals.
fn read_loop(
    addr: std::net::SocketAddr,
    vocab: &[String],
    seed: u64,
    gate: &ReadGate,
) -> (u64, Duration, Vec<String>) {
    let mut wire = Wire::connect(addr);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0003);
    let (mut reads, mut busy, mut errors) = (0u64, Duration::ZERO, Vec::new());
    let mut due = Instant::now();
    while !gate.stop.load(Ordering::SeqCst) {
        // Announce activity before looking at the episode, so a pause the
        // writer announces after this point waits for this read to end.
        gate.idle.store(false, Ordering::SeqCst);
        let episode = gate.episode.load(Ordering::SeqCst);
        if episode == PAUSED {
            gate.idle.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_micros(200));
            due = Instant::now();
            continue;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        due += READ_INTERVAL;
        let query = format!(
            "{} {}",
            vocab[rng.gen_range(0..vocab.len())],
            vocab[rng.gen_range(0..vocab.len())]
        );
        busy += wire.call(
            &format!("mail{episode}"),
            Request::Search {
                query: query.clone(),
                k: 10,
                exhaustive: false,
            },
        );
        reads += 1;
        if !matches!(wire.response(), Response::Hits { .. }) && errors.len() < 10 {
            errors.push(format!("read {query:?} answered {:?}", wire.response()));
        }
    }
    (reads, busy, errors)
}

/// Tells the reader which episode's space to read, and when to stop.
struct ReadGate {
    stop: AtomicBool,
    episode: AtomicUsize,
    idle: AtomicBool,
}

impl ReadGate {
    fn read(&self, episode: usize) {
        self.episode.store(episode, Ordering::SeqCst);
    }

    /// Stop reading and wait until no read is in flight, so the writer
    /// can evict the space and open its journal undisturbed.
    fn pause(&self) {
        self.episode.store(PAUSED, Ordering::SeqCst);
        while !self.idle.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// The traced run's per-layer figures: the same writes applied in-process
/// to a copy of the set-up space, one public call at a time.
fn layers(base: &Path, stream: &[(Write, Request)], ack_p50_us: f64, out: &mut Outcome) {
    let (mut space, _) =
        Semex::open_durable(base, SemexConfig::default()).expect("open the replay copy");
    let (mut ingest, mut commit, mut snapshot) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut events, mut applies) = (Samples::default(), Samples::default());
    let bytes_before = corpus::dir_bytes(base);
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    for (w, req) in stream {
        let apply_before = space.index().apply_calls();
        let t = Instant::now();
        trace::span("core.write", || match req {
            Request::Ingest {
                format,
                name,
                content,
            } => {
                let spec = match format {
                    IngestFormat::Vcard => SourceSpec::Vcard {
                        name: name.clone(),
                        content: content.clone(),
                    },
                    _ => SourceSpec::Mbox {
                        name: name.clone(),
                        content: content.clone(),
                    },
                };
                space.ingest(spec).map(|_| ()).expect("replayed ingest")
            }
            Request::IntegrateCsv { name, csv } => space
                .integrate(name, csv)
                .map(|_| ())
                .expect("replayed integration"),
            Request::AssertSame { a, b } => space
                .assert_same(ObjectId(*a), ObjectId(*b))
                .expect("replayed feedback"),
            Request::AssertDistinct { a, b } => {
                space.assert_distinct(ObjectId(*a), ObjectId(*b));
            }
            _ => unreachable!("the stream holds writes only"),
        });
        if *w == Write::Mail {
            ingest.push(us(t));
        }
        events.push(space.pending_events() as f64);
        let t = Instant::now();
        trace::span("journal.commit", || space.commit()).expect("commit the replayed write");
        commit.push(us(t));
        let t = Instant::now();
        std::hint::black_box(trace::span("core.snapshot", || space.snapshot()));
        snapshot.push(us(t));
        applies.push((space.index().apply_calls() - apply_before) as f64);
    }
    let writes = stream.len();
    let grown = corpus::dir_bytes(base).saturating_sub(bytes_before);
    out.metric("core.ingest_us", ingest.median(), "us", ingest.len());
    out.metric("journal.commit_us", commit.median(), "us", commit.len());
    out.metric(
        "journal.bytes_per_write",
        grown as f64 / writes as f64,
        "bytes",
        writes,
    );
    out.metric("core.snapshot_us", snapshot.median(), "us", snapshot.len());
    out.metric(
        "store.events_per_write",
        events.sum() / writes as f64,
        "count",
        writes,
    );
    out.metric(
        "index.apply_calls",
        applies.sum() / writes as f64,
        "count",
        writes,
    );
    out.metric(
        "serve.ack_overhead_us",
        ack_p50_us - ingest.median() - commit.median() - snapshot.median(),
        "us",
        writes,
    );
}
