//! `desktop_build`: the `semex build --durable` path, from a source
//! directory to a journal-backed space, repeated for the whole run.
//!
//! Reconciliation work differs a lot between generated desktops, so a run
//! rotates over many desktops made from its seed and reports the mean of
//! their per-desktop medians: one desktop's quirks then move the figure
//! far less.

use crate::corpus::{self, Labels, PairCounts};
use crate::stats::{Outcome, Samples};
use crate::{alloc, trace, Args};
use semex_core::{JournalConfig, SemexBuilder};
use semex_index::SearchIndex;
use semex_recon::{reconcile, ReconConfig, Variant};
use semex_store::{SourceInfo, SourceKind, Store};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Corpus size relative to the generator's default desktop. At full size
/// one build takes 4.5–7 s on two cores, too few builds per run for a
/// steady median, and its working set lives in the shared L3, where other
/// tenants of the machine move it by 15 % from run to run. A fifth of the
/// size gives builds of several hundred objects in 0.15–0.7 s.
const SCALE: f64 = 0.2;
/// Desktops a run rotates over. Build time differs by up to 3× between
/// generated desktops of one size; a mean over 32 keeps any one desktop
/// from setting the figure.
const DESKTOPS: usize = 32;
/// Set-up is repeated this many times before the timed phase and this many
/// after it; `setup_s` is the median. Slow spells of a shared machine last
/// seconds, so repetitions on both sides of the phase are less likely to
/// all fall in one.
const SETUP_BEFORE: usize = 3;
const SETUP_AFTER: usize = 2;

pub fn run(args: &Args, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Samples::default();
    let desktops = work.join("desktops");
    let srcs: Vec<_> = (0..DESKTOPS)
        .map(|d| desktops.join(format!("src{d}")))
        .collect();
    // One set-up: every desktop generated, written under `dir` (emptied
    // first, outside the timing, so every set-up writes afresh) and
    // labelled from an extraction without reconciliation.
    let set_up = |dir: &Path, setup: &mut Samples| -> Vec<Labels> {
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        let labels = (0..DESKTOPS)
            .map(|d| {
                let c =
                    corpus::personal(args.seed.wrapping_mul(1000).wrapping_add(d as u64), SCALE);
                let src = dir.join(format!("src{d}"));
                corpus::write_files(&c.files, &src);
                Labels::of_directory(&src, &c.truth)
            })
            .collect();
        setup.push(t.elapsed().as_secs_f64());
        labels
    };
    let mut labels = Vec::new();
    for _ in 0..SETUP_BEFORE {
        labels = set_up(&desktops, &mut setup);
    }

    let mut builds: Vec<Samples> = vec![Samples::default(); DESKTOPS];
    let mut objects: Vec<Option<usize>> = vec![None; DESKTOPS];
    let mut counts = PairCounts::default();
    let mut n = 0;
    let mut peak = 0f64;
    alloc::reset_peak();
    let phase = Instant::now();
    // Whole rotations, so every desktop is built equally often.
    while n % DESKTOPS != 0 || n == 0 || phase.elapsed().as_secs_f64() < args.seconds {
        let d = n % DESKTOPS;
        let space = work.join(format!("space{d}"));
        let _ = std::fs::remove_dir_all(&space);
        let t = Instant::now();
        let durable = trace::span("build", || {
            let semex = trace::span("core.build", || {
                SemexBuilder::new()
                    .add_directory("desktop", &srcs[d])
                    .build()
            })
            .expect("build the desktop space");
            trace::span("journal.snapshot", || {
                semex.into_durable(&space, JournalConfig::default())
            })
            .expect("put the space under a journal")
        });
        builds[d].push(t.elapsed().as_secs_f64() * 1e3);
        // The checks below are the benchmark's: their tables fall outside
        // the heap figure, which resumes with the space they checked.
        peak = peak.max(alloc::peak_mib());
        n += 1;
        out.attempted += 1;
        let count = durable.store().object_count();
        out.check(objects[d].is_none_or(|o| o == count), || {
            format!(
                "desktop {d}: build {n} has {count} objects, earlier builds {:?}",
                objects[d]
            )
        });
        objects[d] = Some(count);
        // The first build of every desktop is checked against the
        // benchmark's own labels; all builds of one desktop are identical.
        if n <= DESKTOPS {
            out.check(durable.store().slot_count() == labels[d].slots, || {
                format!(
                    "desktop {d}: reconciled build has {} slots, raw extraction {}",
                    durable.store().slot_count(),
                    labels[d].slots
                )
            });
            counts = counts.add(PairCounts::of(&labels[d], durable.store()));
        }
        alloc::reset_peak();
    }
    let elapsed = phase.elapsed().as_secs_f64();
    out.check(counts.cross_kind == 0, || {
        format!(
            "{} objects merge references of different kinds",
            counts.cross_kind
        )
    });
    // Every desktop's space from its latest build.
    let disk = (0..DESKTOPS)
        .map(|d| corpus::dir_bytes(&work.join(format!("space{d}"))))
        .sum::<u64>() as f64
        / (1024.0 * 1024.0);

    if trace::enabled() {
        layers(&srcs, &labels, work, &mut out);
    }
    let again = work.join("again");
    for _ in 0..SETUP_AFTER {
        let relabelled = set_up(&again, &mut setup);
        out.check(
            relabelled
                .iter()
                .zip(&labels)
                .all(|(a, b)| a.by_slot == b.by_slot),
            || "a set-up after the phase labelled the desktops differently".into(),
        );
    }
    let _ = std::fs::remove_dir_all(&again);

    let medians: Vec<f64> = builds.iter().map(Samples::median).collect();
    let op = medians.iter().sum::<f64>() / DESKTOPS as f64;
    for (d, b) in builds.iter().enumerate() {
        out.note(
            format!("build_s.desktop{d}"),
            b.median() / 1e3,
            "s",
            b.len(),
        );
    }
    out.metric("setup_s", setup.median(), "s", setup.len());
    out.metric("op_p50_ms", op, "ms", n);
    out.metric("ops_per_s", n as f64 / elapsed, "1/s", n);
    out.metric("peak_alloc_mb", peak, "MiB", 1);
    out.metric("disk_mb", disk, "MiB", 1);
    out.metric("recon_f1", counts.f1(), "ratio", 1);
    out.note("build_s", op / 1e3, "s", n);
    out
}

/// The traced run's per-layer figures: one pass over every desktop making
/// the build pipeline's public calls one by one, the journal's files, and
/// the attribute-only F1 for reference. Times and counts are means per
/// desktop, like `op_p50_ms`.
fn layers(srcs: &[PathBuf], labels: &[Labels], work: &Path, out: &mut Outcome) {
    let threads = ReconConfig::default().threads.max(1);
    let (mut records, mut candidates, mut iterations, mut merges) = (0, 0, 0, 0);
    let mut attr_only = PairCounts::default();
    for (src, labels) in srcs.iter().zip(labels) {
        let mut store = Store::with_builtin_model();
        let sid = store.register_source(SourceInfo::new("desktop", SourceKind::FileSystem));
        let mut ctx = semex_extract::ExtractContext::new(&mut store, sid);
        let stats = trace::span("extract", || {
            semex_extract::fswalk::extract_tree(src, &mut ctx)
        })
        .expect("extract the desktop");
        records += stats.records;
        let mut raw = store.clone();
        let r = trace::span("recon", || {
            reconcile(&mut store, Variant::Full, &ReconConfig::default())
        });
        (candidates, iterations, merges) = (
            candidates + r.candidates,
            iterations + r.iterations,
            merges + r.merges,
        );
        let index = trace::span("index.build", || {
            SearchIndex::build_threaded(&store, threads)
        });
        std::hint::black_box(index.doc_count());
        reconcile(&mut raw, Variant::AttrOnly, &ReconConfig::default());
        attr_only = attr_only.add(PairCounts::of(labels, &raw));
    }
    let per = |total: usize| total as f64 / srcs.len() as f64;
    let ms = |name: &str| Samples::from(trace::durations_us(name)).mean() / 1e3;
    out.metric("extract.ms", ms("extract"), "ms", srcs.len());
    out.metric("extract.records", per(records), "count", srcs.len());
    out.metric("recon.ms", ms("recon"), "ms", srcs.len());
    out.metric("recon.candidates", per(candidates), "count", srcs.len());
    out.metric("recon.iterations", per(iterations), "count", srcs.len());
    out.metric("recon.merges", per(merges), "count", srcs.len());
    out.metric("recon.attr_only_f1", attr_only.f1(), "ratio", srcs.len());
    out.metric("index.build_ms", ms("index.build"), "ms", srcs.len());
    out.metric(
        "journal.snapshot_ms",
        ms("journal.snapshot"),
        "ms",
        trace::durations_us("journal.snapshot").len(),
    );
    let (mut snap, mut side) = (0, 0);
    for d in 0..srcs.len() {
        for e in std::fs::read_dir(work.join(format!("space{d}")))
            .expect("read space")
            .flatten()
        {
            let name = e.file_name().to_string_lossy().to_string();
            let len = e.metadata().map_or(0, |m| m.len());
            if name.starts_with("snapshot-") {
                snap += len as usize;
            } else if name.starts_with("index-") {
                side += len as usize;
            }
        }
    }
    out.metric("store.snapshot_bytes", per(snap), "bytes", srcs.len());
    out.metric("index.sidecar_bytes", per(side), "bytes", srcs.len());
}
