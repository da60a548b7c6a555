//! The experiment harness: regenerates every table and figure of the SEMEX
//! evaluation (see `DESIGN.md` for the experiment index).
//!
//! ```text
//! cargo run -p semex-bench --release --bin experiments -- all
//! cargo run -p semex-bench --release --bin experiments -- e3 e5
//! ```

use semex_bench::{
    extract_bib_str, extract_corpus, fragmentation, label_references, labels_of_kind, TextTable,
};
use semex_corpus::{generate_cora, generate_personal, CoraConfig, CorpusConfig, EntityKind};
use semex_index::SearchIndex;
use semex_integrate::SchemaMatcher;
use semex_model::names::{attr, class, derived};
use semex_model::Value;
use semex_query::summary;
use semex_recon::{pair_metrics, reconcile, Metrics, ReconConfig, Variant};
use semex_store::{Store, StoreStats};
use std::time::Instant;

/// Allocation meter backing E15's resident-bytes numbers: a thin wrapper
/// over the system allocator tracking live bytes and the high-water mark.
/// The two atomics cost nothing measurable on the other experiments.
mod alloc_meter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub struct Meter;

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);
    static TOTAL: AtomicUsize = AtomicUsize::new(0);

    fn add(n: usize) {
        TOTAL.fetch_add(n, Ordering::Relaxed);
        let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    unsafe impl GlobalAlloc for Meter {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = unsafe { System.alloc(layout) };
            if !p.is_null() {
                add(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) };
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = unsafe { System.realloc(ptr, layout, new_size) };
            if !p.is_null() {
                if new_size >= layout.size() {
                    add(new_size - layout.size());
                } else {
                    LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
                }
            }
            p
        }
    }

    /// Bytes currently allocated.
    pub fn live() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    /// Reset the high-water mark to the current live size.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// High-water mark since the last [`reset_peak`].
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Cumulative bytes ever allocated (monotone; deltas measure the
    /// allocation cost of a code region regardless of frees).
    pub fn total() -> usize {
        TOTAL.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static GLOBAL: alloc_meter::Meter = alloc_meter::Meter;

/// The corpus every experiment uses unless it sweeps a parameter: sized
/// like the personal dataset the papers describe (a single researcher's
/// desktop).
fn paper_corpus() -> CorpusConfig {
    CorpusConfig::default() // 120 people, 260 publications, 1400 messages
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_all = args.is_empty() || args.iter().any(|a| a == "all");
    let want = |name: &str| run_all || args.iter().any(|a| a == name);

    println!("SEMEX experiment harness (seed {})\n", paper_corpus().seed);
    if want("e1") {
        e1_extraction_inventory();
    }
    if want("e2") {
        e2_consolidation();
    }
    if want("e3") {
        e3_pim_variants();
    }
    if want("e4") {
        e4_cora_variants();
    }
    if want("e5") {
        e5_scalability();
    }
    if want("e6") {
        e6_search();
    }
    if want("e7") {
        e7_browsing();
    }
    if want("e8") {
        e8_integration();
    }
    if want("e9") {
        e9_pr_curve();
    }
    if want("e10") {
        e10_blocking_ablation();
    }
    if want("e11") {
        e11_search_perf();
    }
    if want("e12") {
        e12_fault_injection();
    }
    if want("e13") {
        e13_serve();
    }
    if want("e14") {
        e14_tenants(false);
    } else if want("e14-smoke") {
        e14_tenants(true);
    }
    if want("e15") {
        e15_snapshot(false);
    } else if want("e15-smoke") {
        e15_snapshot(true);
    }
    if want("e16") {
        e16_cache(false);
    } else if want("e16-smoke") {
        e16_cache(true);
    }
    if want("e17") {
        e17_replica(false);
    } else if want("e17-smoke") {
        e17_replica(true);
    }
    if want("e18") {
        e18_query(false);
    } else if want("e18-smoke") {
        e18_query(true);
    }
}

// ---------------------------------------------------------------------
// E1 (Table 1): extraction inventory.
// ---------------------------------------------------------------------
fn e1_extraction_inventory() {
    println!("## E1 (Table 1) — extraction inventory over the personal corpus\n");
    let cfg = paper_corpus();
    let corpus = generate_personal(&cfg);
    let t0 = Instant::now();
    let store = extract_corpus(&corpus);
    let elapsed = t0.elapsed();
    let stats = StoreStats::compute(&store);

    let mut t = TextTable::new(&["class", "references"]);
    for (name, count) in &stats.classes {
        if *count > 0 {
            t.row(vec![name.clone(), count.to_string()]);
        }
    }
    println!("{}", t.render());
    let mut t = TextTable::new(&["association", "edges"]);
    for (name, count) in &stats.assocs {
        if *count > 0 {
            t.row(vec![name.clone(), count.to_string()]);
        }
    }
    println!("{}", t.render());
    println!(
        "corpus: {} files, {:.1} KiB; extraction {:.1} ms ({} objects, {} edges)\n",
        corpus.files.len(),
        corpus.byte_size() as f64 / 1024.0,
        elapsed.as_secs_f64() * 1e3,
        stats.objects,
        stats.edges
    );
}

// ---------------------------------------------------------------------
// E2 (Table 2): consolidation — references before vs. entities after.
// ---------------------------------------------------------------------
fn e2_consolidation() {
    println!("## E2 (Table 2) — reconciliation consolidation per class\n");
    let cfg = paper_corpus();
    let corpus = generate_personal(&cfg);
    let mut store = extract_corpus(&corpus);
    let pristine = store.clone();

    let classes = [
        class::PERSON,
        class::PUBLICATION,
        class::VENUE,
        class::ORGANIZATION,
    ];
    let truth_counts = [
        corpus.truth.entity_count(EntityKind::Person),
        corpus.truth.entity_count(EntityKind::Publication),
        corpus.truth.entity_count(EntityKind::Venue),
        corpus.truth.entity_count(EntityKind::Organization),
    ];
    let before: Vec<usize> = classes
        .iter()
        .map(|c| store.class_count(store.model().class(c).unwrap()))
        .collect();
    let c_person = store.model().class(class::PERSON).unwrap();
    let frag_before = fragmentation(&store, c_person);
    let report = reconcile(&mut store, Variant::Full, &ReconConfig::default());
    let frag_after = fragmentation(&store, c_person);
    let after: Vec<usize> = classes
        .iter()
        .map(|c| store.class_count(store.model().class(c).unwrap()))
        .collect();

    let mut t = TextTable::new(&["class", "references", "after recon", "true entities"]);
    for (((c, b), a), truth) in classes.iter().zip(&before).zip(&after).zip(&truth_counts) {
        t.row(vec![
            (*c).to_owned(),
            b.to_string(),
            a.to_string(),
            truth.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!(
        "total merges: {} ({} candidate pairs of {} exhaustive; {:.1} ms)\n",
        report.merges,
        report.candidates,
        report.blocking.exhaustive_pairs,
        report.elapsed.as_secs_f64() * 1e3
    );
    let mut t = TextTable::new(&[
        "Person fragmentation",
        "name forms / entity",
        "sources / entity",
        "cross-source share",
    ]);
    for (label, f) in [("before recon", &frag_before), ("after recon", &frag_after)] {
        t.row(vec![
            label.to_owned(),
            format!("{:.2}", f.avg_forms),
            format!("{:.2}", f.avg_sources),
            format!("{:.0}%", f.cross_source_fraction * 100.0),
        ]);
    }
    println!("{}", t.render());

    // Sequential vs. parallel wall-clock per variant, recorded to
    // BENCH_recon.json so CI can track the sharded reconciler's speedup.
    let threads = ReconConfig::default().threads;
    let par_col = format!("{threads}-thread ms");
    let mut t = TextTable::new(&[
        "variant",
        "seq ms",
        par_col.as_str(),
        "speedup",
        "shards",
        "memo hits",
    ]);
    let mut variants_json = Vec::new();
    let mut full_speedup = 0.0f64;
    for v in Variant::ALL {
        let mut s = pristine.clone();
        let seq = reconcile(&mut s, v, &ReconConfig::sequential());
        let mut s = pristine.clone();
        let par = reconcile(&mut s, v, &ReconConfig::default());
        assert_eq!(seq.merges, par.merges, "{v}: parallel equivalence");
        assert_eq!(seq.clusters, par.clusters, "{v}: parallel equivalence");
        let (seq_ms, par_ms) = (
            seq.elapsed.as_secs_f64() * 1e3,
            par.elapsed.as_secs_f64() * 1e3,
        );
        let speedup = if par_ms > 0.0 { seq_ms / par_ms } else { 1.0 };
        if v == Variant::Full {
            full_speedup = speedup;
        }
        t.row(vec![
            v.to_string(),
            format!("{seq_ms:.1}"),
            format!("{par_ms:.1}"),
            format!("{speedup:.2}x"),
            par.shards.to_string(),
            par.memo_hits.to_string(),
        ]);
        variants_json.push(serde_json::json!({
            "variant": v.name(),
            "sequential_ms": seq_ms,
            "parallel_ms": par_ms,
            "speedup": speedup,
            "merges": par.merges,
            "shards": par.shards,
            "memo_hits": par.memo_hits,
        }));
    }
    println!("{}", t.render());
    let bench = serde_json::json!({
        "experiment": "e2-consolidation",
        "refs": report.refs,
        "candidate_pairs": report.candidates,
        "threads": threads,
        "variants": variants_json,
        "full_speedup": full_speedup,
    });
    let record = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    if let Err(e) = std::fs::write("BENCH_recon.json", record) {
        eprintln!("could not write BENCH_recon.json: {e}\n");
    } else {
        println!("wrote BENCH_recon.json (Full speedup {full_speedup:.2}x at {threads} threads)\n");
    }
}

// ---------------------------------------------------------------------
// E3 (Figure 1): variant quality on the personal corpus, noise sweep.
// ---------------------------------------------------------------------
fn run_variants(cfg: &CorpusConfig) -> Vec<(Variant, Metrics, Metrics)> {
    let corpus = generate_personal(cfg);
    Variant::ALL
        .iter()
        .map(|&v| {
            let mut store = extract_corpus(&corpus);
            let labels = label_references(&store, &corpus.truth);
            let person_labels = labels_of_kind(&labels, 1);
            let report = reconcile(&mut store, v, &ReconConfig::default());
            let overall = pair_metrics(&report.clusters, &labels);
            let person = pair_metrics(&report.clusters, &person_labels);
            (v, overall, person)
        })
        .collect()
}

fn e3_pim_variants() {
    println!("## E3 (Figure 1) — reconciliation quality on the personal corpus\n");
    for noise_scale in [0.5, 1.0, 1.5] {
        let mut cfg = paper_corpus();
        cfg.noise = cfg.noise.scaled(noise_scale);
        println!("noise x{noise_scale}:");
        let mut t = TextTable::new(&[
            "variant",
            "precision",
            "recall",
            "F1",
            "person-P",
            "person-R",
            "person-F1",
        ]);
        for (v, m, mp) in run_variants(&cfg) {
            t.row(vec![
                v.name().to_owned(),
                format!("{:.3}", m.precision),
                format!("{:.3}", m.recall),
                format!("{:.3}", m.f1),
                format!("{:.3}", mp.precision),
                format!("{:.3}", mp.recall),
                format!("{:.3}", mp.f1),
            ]);
        }
        println!("{}", t.render());
    }
}

// ---------------------------------------------------------------------
// E4 (Figure 2): variant quality on the Cora-style citation corpus.
// ---------------------------------------------------------------------
fn e4_cora_variants() {
    println!("## E4 (Figure 2) — reconciliation quality on the Cora-style corpus\n");
    let cfg = CoraConfig::default();
    let cora = generate_cora(&cfg);
    println!(
        "corpus: {} citation records over {} true papers\n",
        cora.records, cora.papers
    );
    let mut t = TextTable::new(&["variant", "precision", "recall", "F1", "paper-F1"]);
    for &v in &Variant::ALL {
        let mut store = extract_bib_str(&cora.bibtex);
        let labels = label_references(&store, &cora.truth);
        let pub_labels = labels_of_kind(&labels, 2);
        let report = reconcile(&mut store, v, &ReconConfig::default());
        let m = pair_metrics(&report.clusters, &labels);
        let mpub = pair_metrics(&report.clusters, &pub_labels);
        t.row(vec![
            v.name().to_owned(),
            format!("{:.3}", m.precision),
            format!("{:.3}", m.recall),
            format!("{:.3}", m.f1),
            format!("{:.3}", mpub.f1),
        ]);
    }
    println!("{}", t.render());
}

// ---------------------------------------------------------------------
// E5 (Figure 3): scalability — runtime vs. reference count.
// ---------------------------------------------------------------------
fn e5_scalability() {
    println!("## E5 (Figure 3) — reconciliation runtime vs. corpus size\n");
    let mut t = TextTable::new(&[
        "scale",
        "references",
        "candidates",
        "pair-space",
        "attr-only (ms)",
        "full (ms)",
    ]);
    for scale in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let cfg = paper_corpus().scaled_size(scale);
        let corpus = generate_personal(&cfg);
        let mut row: Vec<String> = vec![format!("x{scale}")];
        let mut shared: Option<(usize, usize, usize)> = None;
        let mut times = Vec::new();
        for v in [Variant::AttrOnly, Variant::Full] {
            let mut store = extract_corpus(&corpus);
            let report = reconcile(&mut store, v, &ReconConfig::default());
            shared = Some((
                report.refs,
                report.candidates,
                report.blocking.exhaustive_pairs,
            ));
            times.push(report.elapsed.as_secs_f64() * 1e3);
        }
        let (refs, cands, exhaustive) = shared.unwrap();
        row.push(refs.to_string());
        row.push(cands.to_string());
        row.push(exhaustive.to_string());
        for ms in times {
            row.push(format!("{ms:.1}"));
        }
        t.row(row);
    }
    println!("{}", t.render());
}

// ---------------------------------------------------------------------
// E6 (Table 3): object-centric keyword search vs. raw file scan.
// ---------------------------------------------------------------------
fn e6_search() {
    println!("## E6 (Table 3) — keyword search over the association DB\n");
    let cfg = paper_corpus();
    let corpus = generate_personal(&cfg);
    let mut store = extract_corpus(&corpus);
    reconcile(&mut store, Variant::Full, &ReconConfig::default());
    let labels = label_references(&store, &corpus.truth);
    let t0 = Instant::now();
    let index = SearchIndex::build(&store);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Query set: for forty people, query their canonical name; the target
    // is any object labelled with that person's entity.
    let queries: Vec<(String, u64)> = corpus
        .world
        .people
        .iter()
        .take(40)
        .map(|p| (p.canonical_name(), (1u64 << 32) | p.id as u64))
        .collect();

    let mut rr_sum = 0.0;
    let mut hits_at_1 = 0;
    let t0 = Instant::now();
    for (q, target) in &queries {
        let hits = index.search_str(&store, q, 10);
        if let Some(rank) = hits
            .iter()
            .position(|h| labels.get(&store.resolve(h.object)) == Some(target))
        {
            rr_sum += 1.0 / (rank + 1) as f64;
            if rank == 0 {
                hits_at_1 += 1;
            }
        }
    }
    let semex_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;

    // Baseline: a raw substring scan over every file (what the user does
    // without SEMEX: grep). It can only return *files*, never a
    // consolidated person object, so quality metrics do not apply.
    let t0 = Instant::now();
    let mut scan_hits = 0;
    for (q, _) in &queries {
        let needle = q.to_lowercase();
        for (_, content) in &corpus.files {
            if content.to_lowercase().contains(&needle) {
                scan_hits += 1;
                break;
            }
        }
    }
    let scan_ms = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;

    let mut t = TextTable::new(&[
        "system",
        "avg latency (ms)",
        "MRR",
        "hit@1",
        "result granularity",
    ]);
    t.row(vec![
        "SEMEX search".into(),
        format!("{semex_ms:.3}"),
        format!("{:.3}", rr_sum / queries.len() as f64),
        format!("{hits_at_1}/{}", queries.len()),
        "reconciled objects".into(),
    ]);
    t.row(vec![
        "file scan (grep)".into(),
        format!("{scan_ms:.3}"),
        "n/a".into(),
        format!("{scan_hits}/{} (files only)", queries.len()),
        "raw files".into(),
    ]);
    println!("{}", t.render());
    println!(
        "index: {} objects, {} terms, built in {:.1} ms\n",
        index.doc_count(),
        index.term_count(),
        build_ms
    );
}

// ---------------------------------------------------------------------
// E7 (Figure 4): browsing latency vs. store size.
// ---------------------------------------------------------------------
fn e7_browsing() {
    println!("## E7 (Figure 4) — association browsing latency vs. store size\n");
    let mut t = TextTable::new(&[
        "scale",
        "objects",
        "edges",
        "neighborhood (us)",
        "CoAuthor (us)",
        "path<=4 (us)",
    ]);
    for scale in [0.5, 1.0, 2.0, 4.0] {
        let cfg = paper_corpus().scaled_size(scale);
        let corpus = generate_personal(&cfg);
        let mut store = extract_corpus(&corpus);
        reconcile(&mut store, Variant::Full, &ReconConfig::default());
        let c_person = store.model().class(class::PERSON).unwrap();
        let people: Vec<_> = store.objects_of_class(c_person).take(100).collect();

        let t0 = Instant::now();
        let mut links = 0usize;
        for &p in &people {
            links += summary::neighborhood(&store, p).len();
        }
        let neigh_us = t0.elapsed().as_secs_f64() * 1e6 / people.len() as f64;

        let t0 = Instant::now();
        for &p in &people {
            let _ = summary::derived(&store, p, derived::CO_AUTHOR).unwrap();
        }
        let coauthor_us = t0.elapsed().as_secs_f64() * 1e6 / people.len() as f64;

        let pairs: Vec<_> = people.windows(2).take(25).collect();
        let t0 = Instant::now();
        for w in &pairs {
            let _ = summary::shortest_path(&store, w[0], w[1], 4);
        }
        let path_us = t0.elapsed().as_secs_f64() * 1e6 / pairs.len() as f64;

        t.row(vec![
            format!("x{scale}"),
            store.object_count().to_string(),
            store.edge_count().to_string(),
            format!("{neigh_us:.1}"),
            format!("{coauthor_us:.1}"),
            format!("{path_us:.1}"),
        ]);
        let _ = links;
    }
    println!("{}", t.render());
}

// ---------------------------------------------------------------------
// E8 (Table 4): on-the-fly integration accuracy.
// ---------------------------------------------------------------------
fn e8_integration() {
    println!("## E8 (Table 4) — on-the-fly integration of external sources\n");
    let cfg = paper_corpus();
    let corpus = generate_personal(&cfg);
    let mut store = extract_corpus(&corpus);
    reconcile(&mut store, Variant::Full, &ReconConfig::default());

    // External source 1: attendee list — 30 known people (canonical name +
    // primary address) and 10 unknown, under foreign headers.
    let mut csv = String::from("attendee,e-mail address,badge\n");
    for p in corpus.world.people.iter().take(30) {
        csv.push_str(&format!(
            "{},{},{}\n",
            p.canonical_name(),
            p.emails[0],
            p.id
        ));
    }
    for i in 0..10 {
        csv.push_str(&format!(
            "Visitor Number{i},visitor{i}@elsewhere.example,{}\n",
            900 + i
        ));
    }
    let table = semex_extract::csv::parse_csv(&csv).unwrap();

    // External source 2: a reading list of known publications.
    let mut csv2 = String::from("paper,published\n");
    for p in corpus.world.pubs.iter().take(25) {
        csv2.push_str(&format!("\"{}\",{}\n", p.title, p.year));
    }
    let table2 = semex_extract::csv::parse_csv(&csv2).unwrap();

    let mut t = TextTable::new(&[
        "source",
        "mapped class",
        "mapping score",
        "rows",
        "merged into existing",
        "expected",
    ]);
    for (name, tab, expected, known) in [
        ("attendees.csv", &table, "30 of 40", 30usize),
        ("reading-list.csv", &table2, "25 of 25", 25usize),
    ] {
        let matcher = SchemaMatcher::new(&store);
        let mapping = matcher.match_table(tab).expect("mapping found");
        let mapped_class = store.model().class_def(mapping.class).name.clone();
        let score = mapping.score;
        let report =
            semex_integrate::import(&mut store, name, tab, &mapping, &ReconConfig::default())
                .unwrap();
        t.row(vec![
            name.to_owned(),
            mapped_class,
            format!("{score:.2}"),
            report.rows.to_string(),
            report.merged_into_existing.to_string(),
            expected.to_owned(),
        ]);
        let _ = known;
    }
    println!("{}", t.render());
    let c_person = store.model().class(class::PERSON).unwrap();
    println!(
        "people after both imports: {} (true world: {})\n",
        store.class_count(c_person),
        corpus.world.people.len()
    );
}

// ---------------------------------------------------------------------
// E9 (Figure 5): precision/recall curve under a threshold sweep.
// ---------------------------------------------------------------------
fn e9_pr_curve() {
    println!("## E9 (Figure 5) — precision/recall under a merge-threshold sweep\n");
    let cfg = paper_corpus().scaled_size(0.5);
    let corpus = generate_personal(&cfg);
    let mut t = TextTable::new(&[
        "threshold",
        "attr-P",
        "attr-R",
        "attr-F1",
        "full-P",
        "full-R",
        "full-F1",
    ]);
    for step in 0..6 {
        let threshold = 0.70 + 0.05 * step as f64;
        let mut cells = vec![format!("{threshold:.2}")];
        for v in [Variant::AttrOnly, Variant::Full] {
            let mut store = extract_corpus(&corpus);
            let labels = label_references(&store, &corpus.truth);
            let rc = ReconConfig {
                threshold,
                ..ReconConfig::default()
            };
            let report = reconcile(&mut store, v, &rc);
            let m = pair_metrics(&report.clusters, &labels);
            cells.push(format!("{:.3}", m.precision));
            cells.push(format!("{:.3}", m.recall));
            cells.push(format!("{:.3}", m.f1));
        }
        t.row(cells);
    }
    println!("{}", t.render());
}

// ---------------------------------------------------------------------
// E10 (ablation): blocking recall and pair-space reduction.
// ---------------------------------------------------------------------
fn e10_blocking_ablation() {
    use semex_recon::{blocking, RefTable};
    println!("## E10 (ablation) — blocking recall vs. pair-space reduction\n");
    let mut t = TextTable::new(&[
        "scale",
        "true pairs",
        "covered by blocking",
        "blocking recall",
        "pair-space scored",
    ]);
    for scale in [0.5, 1.0, 2.0] {
        let cfg = paper_corpus().scaled_size(scale);
        let corpus = generate_personal(&cfg);
        let store = extract_corpus(&corpus);
        let labels = label_references(&store, &corpus.truth);
        let table = RefTable::build(&store, 64);
        let pairs = blocking::candidate_pairs(&table);
        let stats = semex_recon::blocking::BlockingStats::compute(&table, &pairs);

        // True pairs among labelled references; count how many blocking
        // surfaced as candidates.
        let mut by_label: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        for (i, e) in table.entries.iter().enumerate() {
            if let Some(&l) = labels.get(&e.obj) {
                by_label.entry(l).or_default().push(i as u32);
            }
        }
        let candidate_set: std::collections::HashSet<(u32, u32)> = pairs.iter().copied().collect();
        let mut true_pairs = 0u64;
        let mut covered = 0u64;
        for members in by_label.values() {
            for (x, &a) in members.iter().enumerate() {
                for &b in &members[x + 1..] {
                    true_pairs += 1;
                    let key = if a < b { (a, b) } else { (b, a) };
                    if candidate_set.contains(&key) {
                        covered += 1;
                    }
                }
            }
        }
        t.row(vec![
            format!("x{scale}"),
            true_pairs.to_string(),
            covered.to_string(),
            format!("{:.3}", covered as f64 / true_pairs.max(1) as f64),
            format!("{:.2}%", 100.0 * stats.reduction()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(a missed true pair can never be merged: blocking recall bounds end-to-end recall)\n"
    );
}

// ---------------------------------------------------------------------
// E11: retrieval-core performance — sharded build, pruned top-k queries,
// incremental maintenance. Writes BENCH_search.json for CI tracking.
// ---------------------------------------------------------------------
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn e11_search_perf() {
    println!("## E11 — retrieval core: build, pruned queries, incremental updates\n");
    let cfg = paper_corpus();
    let corpus = generate_personal(&cfg);
    let mut store = extract_corpus(&corpus);
    reconcile(&mut store, Variant::Full, &ReconConfig::default());
    let threads = ReconConfig::default().threads;

    let t0 = Instant::now();
    let index = SearchIndex::build(&store);
    let build_seq_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let par = SearchIndex::build_parallel(&store);
    let build_par_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        index.doc_count(),
        par.doc_count(),
        "sharded build equivalence"
    );

    // Query set biased to multi-term queries (full person names plus title
    // words) — the shape MaxScore pruning pays off on.
    let mut queries: Vec<String> = corpus
        .world
        .people
        .iter()
        .take(60)
        .map(|p| p.canonical_name())
        .collect();
    queries.extend(
        [
            "reference reconciliation",
            "information spaces",
            "class:Person michael carey",
        ]
        .iter()
        .map(|q| (*q).to_string()),
    );

    let mut pruned_us: Vec<f64> = Vec::new();
    let mut exhaustive_us: Vec<f64> = Vec::new();
    for _round in 0..3 {
        for q in &queries {
            let t0 = Instant::now();
            let a = index.search_str(&store, q, 10);
            pruned_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            let b = index.search_str_exhaustive(&store, q, 10);
            exhaustive_us.push(t0.elapsed().as_secs_f64() * 1e6);
            assert_eq!(a, b, "pruned/exhaustive equivalence on {q:?}");
        }
    }
    pruned_us.sort_by(f64::total_cmp);
    exhaustive_us.sort_by(f64::total_cmp);
    let (p50_pruned, p99_pruned) = (percentile(&pruned_us, 0.5), percentile(&pruned_us, 0.99));
    let (p50_ex, p99_ex) = (
        percentile(&exhaustive_us, 0.5),
        percentile(&exhaustive_us, 0.99),
    );

    // Incremental maintenance: add one person per update, fold the events
    // in, and compare against rebuilding the whole index from scratch.
    let mut inc_store = store.clone();
    inc_store.enable_events();
    let mut inc_index = SearchIndex::build(&inc_store);
    inc_store.take_events();
    let person = inc_store.model().class(class::PERSON).unwrap();
    let a_name = inc_store.model().attr(attr::NAME).unwrap();
    let updates = 200;
    let t0 = Instant::now();
    for i in 0..updates {
        let p = inc_store.add_object(person);
        inc_store
            .add_attr(p, a_name, Value::from(format!("Delta Person{i}").as_str()))
            .unwrap();
        let events = inc_store.take_events();
        inc_index.apply_events(&inc_store, &events);
    }
    let incremental_us = t0.elapsed().as_secs_f64() * 1e6 / f64::from(updates);
    let t0 = Instant::now();
    let rebuilt = SearchIndex::build(&inc_store);
    let rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        inc_index.doc_count(),
        rebuilt.doc_count(),
        "incremental equivalence"
    );

    let mut t = TextTable::new(&["metric", "value"]);
    t.row(vec![
        "build sequential (ms)".into(),
        format!("{build_seq_ms:.1}"),
    ]);
    t.row(vec![
        format!("build {threads}-thread (ms)"),
        format!("{build_par_ms:.1}"),
    ]);
    t.row(vec![
        "query p50 pruned (us)".into(),
        format!("{p50_pruned:.1}"),
    ]);
    t.row(vec![
        "query p50 exhaustive (us)".into(),
        format!("{p50_ex:.1}"),
    ]);
    t.row(vec![
        "query p99 pruned (us)".into(),
        format!("{p99_pruned:.1}"),
    ]);
    t.row(vec![
        "query p99 exhaustive (us)".into(),
        format!("{p99_ex:.1}"),
    ]);
    t.row(vec![
        "incremental update (us)".into(),
        format!("{incremental_us:.1}"),
    ]);
    t.row(vec!["full rebuild (ms)".into(), format!("{rebuild_ms:.1}")]);
    println!("{}", t.render());

    let bench = serde_json::json!({
        "experiment": "e11-search-perf",
        "docs": index.doc_count(),
        "terms": index.term_count(),
        "threads": threads,
        "build_sequential_ms": build_seq_ms,
        "build_parallel_ms": build_par_ms,
        "query_p50_pruned_us": p50_pruned,
        "query_p99_pruned_us": p99_pruned,
        "query_p50_exhaustive_us": p50_ex,
        "query_p99_exhaustive_us": p99_ex,
        "pruned_p50_speedup": if p50_pruned > 0.0 { p50_ex / p50_pruned } else { 1.0 },
        "incremental_update_us": incremental_us,
        "full_rebuild_ms": rebuild_ms,
        "update_vs_rebuild": if incremental_us > 0.0 {
            rebuild_ms * 1e3 / incremental_us
        } else {
            1.0
        },
        "queries": queries.len(),
    });
    let record = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    if let Err(e) = std::fs::write("BENCH_search.json", record) {
        eprintln!("could not write BENCH_search.json: {e}\n");
    } else {
        println!(
            "wrote BENCH_search.json (pruned p50 {:.1} us vs exhaustive {:.1} us; update {:.1} us vs rebuild {:.1} ms)\n",
            p50_pruned, p50_ex, incremental_us, rebuild_ms
        );
    }
}

// ---------------------------------------------------------------------
// E12: fault-injected durability. Re-runs a commit/compact workload with
// a fault injected at every journal I/O operation (crash and transient
// families), verifies every recovery lands on a commit boundary, and
// exercises the facade's degraded read-only mode under a full disk.
// ---------------------------------------------------------------------
fn e12_fault_injection() {
    use semex_journal::{recover_with_io, FaultIo, FaultPlan, JournalConfig, JournalIo};
    use semex_store::{SourceInfo, SourceKind, StoreEvent};
    use std::sync::Arc;

    println!("## E12 — fault-injected durability: failure-point sweep & degraded mode\n");

    fn scratch(tag: &str, n: u64) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("semex-e12-{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }
    fn jcfg() -> JournalConfig {
        JournalConfig {
            fsync: true,
            retry_backoff: std::time::Duration::ZERO,
            ..JournalConfig::default()
        }
    }
    // The scripted workload's event batches, recorded once from a live
    // store so every swept run replays the identical mutation stream.
    fn batches() -> [Vec<StoreEvent>; 2] {
        let mut st = Store::with_builtin_model();
        st.enable_events();
        let person = st.model().class(class::PERSON).unwrap();
        let name = st.model().attr(attr::NAME).unwrap();
        let email = st.model().attr(attr::EMAIL).unwrap();
        st.register_source(SourceInfo::new("inbox", SourceKind::Synthetic));
        let ann = st.add_object(person);
        st.add_attr(ann, name, Value::from("Ann Smith")).unwrap();
        let b1 = st.take_events();
        let bo = st.add_object(person);
        st.add_attr(bo, name, Value::from("Bo Chen")).unwrap();
        st.add_attr(ann, email, Value::from("ann@example.org"))
            .unwrap();
        let b2 = st.take_events();
        [b1, b2]
    }
    // Snapshot JSON after 0, 1, 2 acked batches: the only states recovery
    // is ever allowed to surface.
    fn boundaries() -> [String; 3] {
        let mut st = Store::with_builtin_model();
        let mut states = vec![st.to_json().unwrap()];
        for batch in &batches() {
            for e in batch {
                st.apply_event(e).unwrap();
            }
            states.push(st.to_json().unwrap());
        }
        states.try_into().unwrap()
    }
    struct Run {
        acked: usize,
        attempted: usize,
        retries: u64,
        converged: bool,
    }
    // open → commit → compact → commit; stops at the first failure the way
    // an application would.
    fn run_workload(dir: &std::path::Path, io: Arc<dyn JournalIo>, reference: &str) -> Run {
        let b = batches();
        let mut run = Run {
            acked: 0,
            attempted: 0,
            retries: 0,
            converged: false,
        };
        // Recovery has no internal retry; re-run it once on a transient
        // error, the way an application supervisor would.
        let recover_step = |io: Arc<dyn JournalIo>| match recover_with_io(dir, jcfg(), io.clone()) {
            Ok(v) => Some(v),
            Err(e) if e.is_transient() => recover_with_io(dir, jcfg(), io).ok(),
            Err(_) => None,
        };
        let Some((_, mut j, _)) = recover_step(io.clone()) else {
            return run;
        };
        let mut mirror = Store::with_builtin_model();
        for (i, events) in b.iter().enumerate() {
            run.attempted = i + 1;
            if j.append_commit(events).is_err() {
                break;
            }
            run.acked = i + 1;
            for e in events {
                mirror.apply_event(e).unwrap();
            }
            if i == 0 {
                let _ = j.compact(&mirror);
            }
        }
        run.retries = j.retry_count();
        drop(j);
        if let Some((store, _, _)) = recover_step(io) {
            run.converged = store.to_json().unwrap() == reference;
        }
        run
    }

    // Fault-free pass: count the workload's I/O operations and compute
    // the reference final state.
    let bounds = boundaries();
    let reference = bounds[2].clone();
    let dir = scratch("ref", 0);
    let io = FaultIo::new(FaultPlan::None);
    let free = run_workload(&dir, Arc::new(io.clone()), &reference);
    assert!(free.converged, "fault-free workload must converge");
    let total_ops = io.op_count();
    std::fs::remove_dir_all(&dir).ok();

    // Crash sweep: power fails at op N (torn write, then everything
    // down); after restart, recovery must land on a commit boundary no
    // earlier than the last acked batch.
    let t0 = Instant::now();
    let mut crash_verified = 0u64;
    for at in 0..total_ops {
        let dir = scratch("crash", at);
        let io = FaultIo::new(FaultPlan::Crash { at });
        let run = run_workload(&dir, Arc::new(io.clone()), &reference);
        io.clear_faults();
        let (store, _, _) = recover_with_io(&dir, jcfg(), Arc::new(io))
            .unwrap_or_else(|e| panic!("crash at op {at}: recovery failed: {e}"));
        let recovered = store.to_json().unwrap();
        let allowed = &bounds[run.acked..=run.attempted.max(run.acked)];
        assert!(
            allowed.contains(&recovered),
            "crash at op {at}: recovered state is not an acked commit boundary"
        );
        crash_verified += 1;
        std::fs::remove_dir_all(&dir).ok();
    }
    let crash_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Transient sweep: EINTR at op N; the journal's bounded retry must
    // absorb it and the workload must converge to the reference state.
    let t0 = Instant::now();
    let mut retries_absorbed = 0u64;
    let mut transient_converged = 0u64;
    for at in 0..total_ops {
        let dir = scratch("eintr", at);
        let io = FaultIo::new(FaultPlan::ErrorOnce {
            at,
            kind: std::io::ErrorKind::Interrupted,
        });
        let run = run_workload(&dir, Arc::new(io.clone()), &reference);
        retries_absorbed += run.retries;
        if run.converged {
            transient_converged += 1;
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    let transient_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Degraded read-only mode: the disk fills mid-commit, the platform
    // degrades (reads served, writes rejected), space frees, and
    // try_recover_journal flushes the backlog exactly once.
    let t0 = Instant::now();
    let cycles = 3u64;
    let mut degraded_transitions = 0u64;
    let mut degraded_recoveries = 0u64;
    let mut events_flushed = 0u64;
    let dir = scratch("degraded", 0);
    let io = FaultIo::new(FaultPlan::None);
    let (mut durable, _) = semex_core::Semex::open_durable_io(
        &dir,
        semex_core::SemexConfig::default(),
        jcfg(),
        Arc::new(io.clone()),
    )
    .expect("open durable platform");
    for cycle in 0..cycles {
        durable
            .ingest(semex_core::SourceSpec::Mbox {
                name: format!("inbox-{cycle}"),
                content: format!(
                    "From: Sender {cycle} <s{cycle}@example.org>\nSubject: update {cycle}\n\nbody"
                ),
            })
            .expect("ingest while healthy");
        let backlog = durable.pending_events() as u64;
        io.set_plan(FaultPlan::DiskFull { at: io.op_count() });
        durable
            .commit()
            .expect_err("commit on a full disk must fail");
        if durable.degraded().is_some() {
            degraded_transitions += 1;
        }
        // Reads keep working from the in-memory state while degraded.
        assert!(
            !durable.search(&format!("update {cycle}"), 5).is_empty(),
            "degraded platform must keep serving reads"
        );
        io.clear_faults();
        if let Ok(flushed) = durable.try_recover_journal() {
            degraded_recoveries += 1;
            events_flushed += flushed as u64;
            assert!(flushed as u64 <= backlog, "backlog flushed at most once");
        }
    }
    drop(durable);
    let degraded_ms = t0.elapsed().as_secs_f64() * 1e3;
    std::fs::remove_dir_all(&dir).ok();

    let mut t = TextTable::new(&["fault family", "ops swept", "verified", "retries", "ms"]);
    t.row(vec![
        "crash".into(),
        total_ops.to_string(),
        crash_verified.to_string(),
        "-".into(),
        format!("{crash_ms:.0}"),
    ]);
    t.row(vec![
        "transient (EINTR)".into(),
        total_ops.to_string(),
        transient_converged.to_string(),
        retries_absorbed.to_string(),
        format!("{transient_ms:.0}"),
    ]);
    t.row(vec![
        "disk full (degraded)".into(),
        cycles.to_string(),
        degraded_recoveries.to_string(),
        "-".into(),
        format!("{degraded_ms:.0}"),
    ]);
    println!("{}", t.render());
    println!(
        "degraded transitions: {degraded_transitions}, backlog events re-committed: \
         {events_flushed}\n"
    );

    let bench = serde_json::json!({
        "experiment": "e12-fault-injection",
        "workload_ops": total_ops,
        "crash": {
            "ops_swept": total_ops,
            "recoveries_verified": crash_verified,
            "sweep_ms": crash_ms,
        },
        "transient": {
            "ops_swept": total_ops,
            "runs_converged": transient_converged,
            "retries_absorbed": retries_absorbed,
            "sweep_ms": transient_ms,
        },
        "degraded": {
            "cycles": cycles,
            "transitions": degraded_transitions,
            "recoveries": degraded_recoveries,
            "events_flushed": events_flushed,
        },
    });
    let record = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    if let Err(e) = std::fs::write("BENCH_faults.json", record) {
        eprintln!("could not write BENCH_faults.json: {e}\n");
    } else {
        println!(
            "wrote BENCH_faults.json ({total_ops} ops swept, {crash_verified} crash recoveries \
             verified, {retries_absorbed} retries absorbed, {degraded_transitions} degraded \
             transitions)\n"
        );
    }
}

// ---------------------------------------------------------------------
// E13: the serving layer — read throughput scaling with server threads,
// mixed-workload latency, write coalescing, and admission control.
// ---------------------------------------------------------------------
fn e13_serve() {
    use semex_core::{Semex, SemexBuilder, SemexConfig};
    use semex_serve::protocol::{read_response, IngestFormat, Request, Response};
    use semex_serve::{serve, Client, PoolConfig, ServeConfig};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    println!("## E13 — concurrent query service: scaling, coalescing, admission control\n");

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 400;
    const WRITE_EVERY: usize = 20; // 1-in-20 requests is a write: a 95/5 mix

    // Build the space once, snapshot it, and reload it per round so every
    // server-thread count starts from the identical state.
    let cfg = paper_corpus();
    let corpus = generate_personal(&cfg);
    let scratch = std::env::temp_dir().join(format!("semex-e13-{}", std::process::id()));
    let corpus_dir = scratch.join("corpus");
    corpus
        .write_to(&corpus_dir)
        .expect("corpus renders to disk");
    let t0 = Instant::now();
    let semex = SemexBuilder::new()
        .add_directory("desktop", &corpus_dir)
        .build()
        .expect("build the platform");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let space = scratch.join("space.json");
    semex.save(&space).expect("snapshot the platform");

    // A query pool drawn from real person labels so reads do real work.
    let c_person = semex.store().model().class(class::PERSON).unwrap();
    let people: Vec<_> = semex.store().objects_of_class(c_person).take(200).collect();
    let mut pool: Vec<String> = people
        .iter()
        .flat_map(|&o| {
            semex
                .store()
                .label(o)
                .split_whitespace()
                .map(|w| w.to_lowercase())
                .collect::<Vec<_>>()
        })
        .filter(|w| w.len() >= 3)
        .collect();
    pool.sort();
    pool.dedup();
    let pool = Arc::new(pool);
    let objects = semex.stats().objects;
    drop(semex);
    println!(
        "platform: {objects} objects ({build_ms:.0} ms build), query pool {} words\n",
        pool.len()
    );

    let mut table = TextTable::new(&[
        "server threads",
        "req/s",
        "read p50 us",
        "read p99 us",
        "writes ok",
        "batches",
        "coalesce",
    ]);
    let mut rounds = Vec::new();
    for &threads in &[1usize, 2, 4] {
        let master = Semex::load(&space, SemexConfig::default()).expect("reload");
        let config = ServeConfig {
            threads,
            ..ServeConfig::default()
        };
        let handle = serve(master, "127.0.0.1:0", config, PoolConfig::default())
            .expect("bind an ephemeral port");
        let addr = handle.addr();

        let t0 = Instant::now();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|cid| {
                let pool = Arc::clone(&pool);
                thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    // Warm-up request: it absorbs this connection's wait in
                    // the accept queue, which is contention we account for
                    // in throughput, not in per-request service latency.
                    client.request(&Request::Stats).expect("warm-up");
                    // Deterministic xorshift picks the queries.
                    let mut state = 0x9E37_79B9u64 ^ ((threads as u64) << 32) ^ cid as u64;
                    let mut latencies = Vec::with_capacity(REQUESTS);
                    for j in 0..REQUESTS {
                        if j % WRITE_EVERY == WRITE_EVERY - 1 {
                            let response = client
                                .request(&Request::Ingest {
                                    format: IngestFormat::Mbox,
                                    name: format!("load-t{threads}-c{cid}-{j}"),
                                    content: format!(
                                        "From: c{cid}j{j}@load.example\n\
                                         Subject: load note\n\nbody"
                                    ),
                                })
                                .expect("write acked");
                            assert!(matches!(response, Response::Ingested { .. }));
                        } else {
                            state ^= state << 13;
                            state ^= state >> 7;
                            state ^= state << 17;
                            let query = pool[(state % pool.len() as u64) as usize].clone();
                            let r0 = Instant::now();
                            let response = client
                                .request(&Request::Search {
                                    query,
                                    k: 10,
                                    exhaustive: false,
                                })
                                .expect("read served");
                            latencies.push(r0.elapsed().as_secs_f64() * 1e6);
                            assert!(matches!(response, Response::Hits { .. }));
                        }
                    }
                    latencies
                })
            })
            .collect();
        let mut latencies: Vec<f64> = clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect();
        let wall = t0.elapsed().as_secs_f64();
        handle.shutdown();
        let report = handle.join();

        latencies.sort_by(f64::total_cmp);
        let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
        let throughput = (CLIENTS * REQUESTS) as f64 / wall;
        let coalesce = report.writer.writes_ok as f64 / report.writer.batches.max(1) as f64;
        table.row(vec![
            threads.to_string(),
            format!("{throughput:.0}"),
            format!("{:.0}", pct(0.50)),
            format!("{:.0}", pct(0.99)),
            report.writer.writes_ok.to_string(),
            report.writer.batches.to_string(),
            format!("{coalesce:.2}"),
        ]);
        rounds.push(serde_json::json!({
            "server_threads": threads,
            "requests": CLIENTS * REQUESTS,
            "throughput_rps": throughput,
            "read_p50_us": pct(0.50),
            "read_p99_us": pct(0.99),
            "writes_ok": report.writer.writes_ok,
            "writes_failed": report.writer.writes_failed,
            "batches": report.writer.batches,
            "coalesced_commit_ratio": coalesce,
            "final_epoch": report.writer.final_epoch,
        }));
    }
    println!("{}", table.render());

    // Admission control: one busy worker, a one-slot accept queue, and a
    // burst of connections — everything past the queue is shed with a
    // typed `overloaded` response, never a hang or a silent close.
    let master = Semex::load(&space, SemexConfig::default()).expect("reload");
    let config = ServeConfig {
        threads: 1,
        conn_queue: 1,
        ..ServeConfig::default()
    };
    let handle = serve(master, "127.0.0.1:0", config, PoolConfig::default())
        .expect("bind an ephemeral port");
    let addr = handle.addr();
    let mut held = Client::connect(addr).expect("held connection");
    held.request(&Request::Stats).expect("held is being served");
    let _queued = Client::connect(addr).expect("queued connection fills the slot");
    thread::sleep(Duration::from_millis(30));
    const BURST: usize = 8;
    let mut shed = 0usize;
    for _ in 0..BURST {
        let mut stream = std::net::TcpStream::connect(addr).expect("burst connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("read timeout");
        if let Ok(Some(Response::Overloaded { queue })) = read_response(&mut stream) {
            assert_eq!(queue, "connections");
            shed += 1;
        }
    }
    drop(held);
    drop(_queued);
    handle.shutdown();
    let overload = handle.join();
    println!(
        "admission control: {shed}/{BURST} burst connections shed with a typed \
         overloaded response (server counted {})\n",
        overload.shed_connections
    );
    std::fs::remove_dir_all(&scratch).ok();

    let bench = serde_json::json!({
        "experiment": "e13-serve",
        "workload": {
            "clients": CLIENTS,
            "requests_per_client": REQUESTS,
            "write_fraction": 1.0 / WRITE_EVERY as f64,
            "objects": objects,
        },
        "rounds": rounds,
        "overload": {
            "burst": BURST,
            "shed": shed,
            "server_shed_connections": overload.shed_connections,
        },
    });
    let record = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    if let Err(e) = std::fs::write("BENCH_serve.json", record) {
        eprintln!("could not write BENCH_serve.json: {e}\n");
    } else {
        println!("wrote BENCH_serve.json ({} rounds, {shed} shed)\n", 3);
    }
}

// ---------------------------------------------------------------------
// E14: multi-tenant serving — thousands of personal spaces, one process.
// Resident set vs tenant count under an LRU memory budget, cold-open
// (reactivation) latency, zipf-distributed cross-tenant traffic, and
// throughput isolation against one abusive tenant.
// ---------------------------------------------------------------------
fn e14_tenants(smoke: bool) {
    use semex_core::JournalConfig;
    use semex_serve::protocol::{IngestFormat, Request, Response};
    use semex_serve::{
        serve_tenants, Client, PoolConfig, RetryPolicy, ServeConfig, TenantRegistry,
    };
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::thread;

    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "## E14 — multi-tenant serving ({mode}): budgeted residency, zipf traffic, isolation\n"
    );

    // Full mode exercises the headline claim (>= 100 spaces in one
    // process); smoke mode is the CI-sized version of the same shape.
    let tenants: usize = if smoke { 8 } else { 120 };
    let budget_tenants: usize = if smoke { 4 } else { 24 };
    let zipf_clients: usize = if smoke { 2 } else { 4 };
    let zipf_requests: usize = if smoke { 60 } else { 600 };
    let victim_reads: usize = if smoke { 60 } else { 400 };

    // Purely alphabetic tokens: digits could be split by the tokenizer.
    let letter = |i: usize| char::from(b'a' + (i % 26) as u8);
    let seed_token = |i: usize| format!("seed{}{}", letter(i / 26), letter(i % 26));
    let name_of = |i: usize| format!("space-{i:03}");
    let seed_ingest = |i: usize| Request::Ingest {
        format: IngestFormat::Mbox,
        name: "inbox".into(),
        content: format!(
            "From: owner@{t}.example\nSubject: {t} notes\n\n\
             a personal note mentioning {t} twice: {t}",
            t = seed_token(i)
        ),
    };
    let journal = JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    };
    let scratch = std::env::temp_dir().join(format!("semex-e14-{mode}-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    // Probe round: one tenant with the standard payload, unlimited
    // budget, to learn what a resident space costs. The real budget is a
    // multiple of that, so eviction pressure is the same at every scale.
    let per_tenant_cost = {
        let registry = TenantRegistry::open(scratch.join("probe")).expect("probe registry");
        let pool = PoolConfig {
            journal: journal.clone(),
            ..PoolConfig::default()
        };
        let handle = serve_tenants(registry, "127.0.0.1:0", ServeConfig::default(), pool)
            .expect("probe bind");
        let mut client = Client::connect(handle.addr())
            .expect("probe client")
            .with_tenant("probe");
        assert!(matches!(
            client.request(&seed_ingest(0)).expect("probe ingest"),
            Response::Ingested { .. }
        ));
        let cost = handle.tenants().resident_bytes.max(1);
        drop(client);
        handle.join();
        cost
    };
    let budget = per_tenant_cost * budget_tenants;
    println!(
        "one resident space costs ~{per_tenant_cost} bytes; \
         budget {budget} bytes ({budget_tenants} spaces) for {tenants} tenants\n"
    );

    let registry = TenantRegistry::open(scratch.join("spaces")).expect("registry");
    let config = ServeConfig {
        threads: zipf_clients + 4,
        ..ServeConfig::default()
    };
    let pool = PoolConfig {
        memory_budget: budget,
        journal: journal.clone(),
        ..PoolConfig::default()
    };
    let handle = serve_tenants(registry, "127.0.0.1:0", config, pool).expect("bind");
    let addr = handle.addr();

    // Phase 1 — populate every space and chart residency as the tenant
    // count passes the budget: the resident set must plateau, not grow.
    let mut samples: Vec<(usize, usize, usize, u64)> = Vec::new();
    let sample_every = (tenants / 12).max(1);
    {
        let mut client = Client::connect(addr).expect("populate client");
        for i in 0..tenants {
            client = client.with_tenant(name_of(i));
            assert!(matches!(
                client.request(&seed_ingest(i)).expect("seed ingest"),
                Response::Ingested { .. }
            ));
            if (i + 1) % sample_every == 0 || i + 1 == tenants {
                let snap = handle.tenants();
                samples.push((
                    i + 1,
                    snap.resident_tenants,
                    snap.resident_bytes,
                    snap.evictions,
                ));
            }
        }
    }
    let mut t = TextTable::new(&["tenants", "resident", "resident bytes", "evictions"]);
    for &(created, resident, bytes, evictions) in &samples {
        t.row(vec![
            created.to_string(),
            resident.to_string(),
            bytes.to_string(),
            evictions.to_string(),
        ]);
    }
    println!("{}", t.render());
    let population: Vec<serde_json::Value> = samples
        .iter()
        .map(|&(created, resident, bytes, evictions)| {
            serde_json::json!({
                "tenants_created": created,
                "resident_tenants": resident,
                "resident_bytes": bytes,
                "evictions": evictions,
            })
        })
        .collect();

    // Phase 2 — zipf-distributed traffic: a few hot spaces, a long cold
    // tail, 1-in-10 requests a write. Cold-tail reads force eviction and
    // journal reactivation mid-flight.
    let zipf_cdf: Arc<Vec<f64>> = {
        let weights: Vec<f64> = (0..tenants)
            .map(|i| 1.0 / ((i + 1) as f64).powf(1.1))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Arc::new(
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        )
    };
    let t0 = Instant::now();
    let zipf_threads: Vec<_> = (0..zipf_clients)
        .map(|cid| {
            let cdf = Arc::clone(&zipf_cdf);
            thread::spawn(move || {
                let letter = |i: usize| char::from(b'a' + (i % 26) as u8);
                let seed_token = |i: usize| format!("seed{}{}", letter(i / 26), letter(i % 26));
                let mut client = Client::connect(addr).expect("zipf client");
                let policy = RetryPolicy::default();
                let mut state = 0xD1B5_4A32u64 ^ ((cid as u64) << 17) ^ 0x9E37_79B9;
                let mut reads = Vec::new();
                let mut writes_landed = 0u64;
                for j in 0..zipf_requests {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                    let pick = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                    client = client.with_tenant(format!("space-{pick:03}"));
                    if j % 10 == 9 {
                        let response = client
                            .request_with_retry(
                                &Request::Ingest {
                                    format: IngestFormat::Mbox,
                                    name: format!("zipf-c{cid}-{j}"),
                                    content: format!(
                                        "From: load@{t}.example\nSubject: zipf load\n\nmore {t}",
                                        t = seed_token(pick)
                                    ),
                                },
                                &policy,
                            )
                            .expect("zipf write");
                        if matches!(response, Response::Ingested { .. }) {
                            writes_landed += 1;
                        }
                    } else {
                        let r0 = Instant::now();
                        let response = client
                            .request_with_retry(
                                &Request::Search {
                                    query: seed_token(pick),
                                    k: 5,
                                    exhaustive: false,
                                },
                                &policy,
                            )
                            .expect("zipf read");
                        reads.push(r0.elapsed().as_secs_f64() * 1e6);
                        match response {
                            Response::Hits { hits, .. } => {
                                assert!(!hits.is_empty(), "space {pick} lost its seed data")
                            }
                            other => panic!("unexpected zipf response: {other:?}"),
                        }
                    }
                }
                (reads, writes_landed)
            })
        })
        .collect();
    let mut zipf_reads: Vec<f64> = Vec::new();
    let mut zipf_writes = 0u64;
    for thread in zipf_threads {
        let (reads, writes) = thread.join().expect("zipf thread");
        zipf_reads.extend(reads);
        zipf_writes += writes;
    }
    let zipf_wall = t0.elapsed().as_secs_f64();
    zipf_reads.sort_by(f64::total_cmp);
    let pct = |v: &[f64], p: f64| v[((v.len() - 1) as f64 * p) as usize];
    let zipf_rps = (zipf_clients * zipf_requests) as f64 / zipf_wall;
    let mid_zipf = handle.tenants();
    println!(
        "zipf: {} requests at {zipf_rps:.0} req/s, read p50 {:.0} us / p99 {:.0} us, \
         {zipf_writes} writes; {} evictions, {} cold opens so far\n",
        zipf_clients * zipf_requests,
        pct(&zipf_reads, 0.50),
        pct(&zipf_reads, 0.99),
        mid_zipf.evictions,
        mid_zipf.cold_opens,
    );

    // Phase 3 — throughput isolation: the victim's read p99 at a steady
    // operating point (background readers over the hot spaces), measured
    // twice — without and with one abusive tenant flooding the write
    // path. Per-tenant queues must keep the abuse on the abuser; the
    // background load is identical in both rounds, so the ratio charges
    // the abuser alone. The working set (background + victim + abuser)
    // fits the budget, so eviction churn does not confound the rounds.
    let victim = tenants / 2;
    let bg_spaces: Vec<usize> = (1..budget_tenants.saturating_sub(1)).collect();
    let run_round = |abusive: bool, label: &'static str| -> (Vec<f64>, u64) {
        let done = Arc::new(AtomicBool::new(false));
        let background: Vec<_> = (0..2)
            .map(|b| {
                let done = Arc::clone(&done);
                let spaces = bg_spaces.clone();
                thread::spawn(move || {
                    let letter = |i: usize| char::from(b'a' + (i % 26) as u8);
                    let mut client = Client::connect(addr).expect("background client");
                    let mut k = b;
                    while !done.load(Ordering::Relaxed) {
                        let pick = spaces[k % spaces.len()];
                        k += 1;
                        client = client.with_tenant(format!("space-{pick:03}"));
                        let query = format!("seed{}{}", letter(pick / 26), letter(pick % 26));
                        client
                            .request(&Request::Search {
                                query,
                                k: 5,
                                exhaustive: false,
                            })
                            .expect("background read");
                    }
                })
            })
            .collect();
        let abuser = abusive.then(|| {
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut client = Client::connect(addr)
                    .expect("abuser client")
                    .with_tenant("space-000");
                let flood: String = "spam words fill the journal and the index ".repeat(40);
                let mut n = 0u64;
                while !done.load(Ordering::Relaxed) {
                    // Fire-and-forget flood: overloaded answers are fine,
                    // they are the admission control doing its job.
                    let response = client
                        .request(&Request::Ingest {
                            format: IngestFormat::Mbox,
                            name: format!("abuse-{n}"),
                            content: format!(
                                "From: abuse@flood.example\nSubject: flood\n\n{flood}"
                            ),
                        })
                        .expect("abuser framed answer");
                    assert!(matches!(
                        response,
                        Response::Ingested { .. } | Response::Overloaded { .. }
                    ));
                    n += 1;
                }
                n
            })
        });

        let mut client = Client::connect(addr)
            .expect("victim client")
            .with_tenant(name_of(victim));
        client
            .request(&Request::Stats)
            .unwrap_or_else(|e| panic!("victim warm-up ({label}): {e}"));
        let mut latencies = Vec::with_capacity(victim_reads);
        for _ in 0..victim_reads {
            let r0 = Instant::now();
            let response = client
                .request(&Request::Search {
                    query: seed_token(victim),
                    k: 5,
                    exhaustive: false,
                })
                .unwrap_or_else(|e| panic!("victim read ({label}): {e}"));
            latencies.push(r0.elapsed().as_secs_f64() * 1e6);
            assert!(matches!(response, Response::Hits { .. }));
        }
        done.store(true, Ordering::Relaxed);
        for thread in background {
            thread.join().expect("background thread");
        }
        let abuser_requests = abuser
            .map(|t| t.join().expect("abuser thread"))
            .unwrap_or(0);
        latencies.sort_by(f64::total_cmp);
        (latencies, abuser_requests)
    };

    let (baseline, _) = run_round(false, "baseline");
    let (under_abuse, abuser_requests) = run_round(true, "under abuse");

    let base_p99 = pct(&baseline, 0.99);
    let abuse_p99 = pct(&under_abuse, 0.99);
    let ratio = abuse_p99 / base_p99.max(1e-9);
    println!(
        "isolation: victim read p99 {base_p99:.0} us with background load vs {abuse_p99:.0} us \
         when one tenant floods {abuser_requests} writes on top — {ratio:.2}x degradation\n"
    );

    let report = handle.join();
    let mut cold = report.tenants.cold_open_us.clone();
    cold.sort_unstable();
    let cold_pct = |p: f64| {
        if cold.is_empty() {
            0
        } else {
            cold[((cold.len() - 1) as f64 * p) as usize]
        }
    };
    println!(
        "pool lifetime: {} activations, {} cold opens (p50 {} us, p99 {} us), \
         {} evictions, peak {} spaces / {} bytes resident (budget {budget})\n",
        report.tenants.activations,
        report.tenants.cold_opens,
        cold_pct(0.50),
        cold_pct(0.99),
        report.tenants.evictions,
        report.tenants.max_resident_tenants,
        report.tenants.max_resident_bytes,
    );

    // The budget held: peak residency never exceeded budget plus the
    // worst-case pinned slack (one in-service space per worker thread).
    let slack = (zipf_clients + 4 + 2) * per_tenant_cost;
    assert!(
        report.tenants.max_resident_bytes <= budget + slack,
        "resident memory broke the budget: {} > {budget} + {slack}",
        report.tenants.max_resident_bytes
    );
    assert!(report.tenants.evictions > 0, "the budget never evicted");
    assert!(
        report.tenants.cold_opens > 0,
        "no space was ever reactivated"
    );
    std::fs::remove_dir_all(&scratch).ok();

    let bench = serde_json::json!({
        "experiment": "e14-tenants",
        "mode": mode,
        "tenants": tenants,
        "per_tenant_cost_bytes": per_tenant_cost,
        "memory_budget_bytes": budget,
        "population": population,
        "zipf": {
            "exponent": 1.1,
            "clients": zipf_clients,
            "requests": zipf_clients * zipf_requests,
            "throughput_rps": zipf_rps,
            "read_p50_us": pct(&zipf_reads, 0.50),
            "read_p99_us": pct(&zipf_reads, 0.99),
            "writes_landed": zipf_writes,
        },
        "pool": {
            "activations": report.tenants.activations,
            "cold_opens": report.tenants.cold_opens,
            "cold_open_p50_us": cold_pct(0.50),
            "cold_open_p99_us": cold_pct(0.99),
            "evictions": report.tenants.evictions,
            "max_resident_tenants": report.tenants.max_resident_tenants,
            "max_resident_bytes": report.tenants.max_resident_bytes,
            "shed_inflight": report.tenants.shed_inflight,
        },
        "isolation": {
            "victim_reads": victim_reads,
            "baseline_p99_us": base_p99,
            "under_abuse_p99_us": abuse_p99,
            "degradation_ratio": ratio,
            "abuser_requests": abuser_requests,
        },
        "server": {
            "requests": report.requests,
            "shed_connections": report.shed_connections,
            "shed_writes": report.shed_writes,
            "writes_ok": report.writer.writes_ok,
            "writes_failed": report.writer.writes_failed,
            "batches": report.writer.batches,
        },
    });
    let record = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    if let Some(path) = write_bench("BENCH_tenants.json", smoke, &record) {
        println!(
            "wrote {path} ({tenants} tenants, {} evictions, {ratio:.2}x isolation)\n",
            report.tenants.evictions
        );
    }
}

fn e15_snapshot(smoke: bool) {
    use semex_core::{JournalConfig, Semex, SemexBuilder, SemexConfig, SourceSpec};

    let mode = if smoke { "smoke" } else { "full" };
    println!("## E15 — binary snapshots: cold-open latency, memory and publication ({mode})\n");

    let scales: &[(&str, f64)] = if smoke {
        &[("small", 0.25)]
    } else {
        &[("small", 0.25), ("medium", 1.0), ("large", 2.5)]
    };
    let iterations: usize = if smoke { 3 } else { 7 };
    let queries = [
        "garcia",
        "class:Person data",
        "class:Publication integration",
        "class:Message meeting",
    ];

    let scratch = std::env::temp_dir().join(format!("semex-e15-{mode}-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let pct = |v: &[f64], p: f64| v[((v.len() - 1) as f64 * p) as usize];
    // Full-precision hit rendering: equivalence means *byte*-identical.
    let answers = |s: &Semex| -> Vec<String> {
        queries
            .iter()
            .flat_map(|q| {
                s.search(q, 10)
                    .into_iter()
                    .map(move |h| format!("{q}|{}|{}|{}|{}", h.object.0, h.label, h.class, h.score))
            })
            .collect()
    };

    let mut table = TextTable::new(&[
        "scale",
        "disk bytes",
        "open p50 ms",
        "open p99 ms",
        "peak MiB",
        "resident MiB",
        "publish p50 µs",
    ]);
    let mut records = Vec::new();
    for &(label, scale) in scales {
        let cfg = paper_corpus().scaled_size(scale);
        let corpus = generate_personal(&cfg);
        let corpus_dir = scratch.join(format!("corpus-{label}"));
        corpus.write_to(&corpus_dir).expect("corpus renders");
        let semex = SemexBuilder::new()
            .add_directory("desktop", &corpus_dir)
            .build()
            .expect("build the platform");
        std::fs::remove_dir_all(&corpus_dir).ok();
        let objects = semex.stats().objects;
        let expected = answers(&semex);

        let journal = JournalConfig {
            fsync: false,
            ..JournalConfig::default()
        };
        let dir = scratch.join(label);
        semex
            .into_durable(&dir, journal.clone())
            .expect("seed journal dir");

        // On-disk footprint: the fresh journal's snapshot plus its index
        // sidecar.
        let disk_bytes: u64 = [
            semex_journal::segment::snapshot_file_name(0),
            semex_journal::segment::index_file_name(0),
        ]
        .iter()
        .filter_map(|name| std::fs::metadata(dir.join(name)).ok())
        .map(|m| m.len())
        .sum();

        let mut opens_ms = Vec::with_capacity(iterations);
        let mut peaks = Vec::with_capacity(iterations);
        let mut residents = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            let live_before = alloc_meter::live();
            alloc_meter::reset_peak();
            let t0 = Instant::now();
            let (open, report) =
                Semex::open_durable_with(&dir, SemexConfig::default(), journal.clone())
                    .expect("cold open");
            opens_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            assert!(report.damage.is_none(), "clean space: {report:?}");
            peaks.push(alloc_meter::peak().saturating_sub(live_before));
            residents.push(alloc_meter::live().saturating_sub(live_before));
            // The reopened space answers byte-identically to the built one.
            assert_eq!(
                answers(&open),
                expected,
                "cold-open answers diverged at scale {label}"
            );
        }
        // Publication: the snapshot a write batch publishes, taken after a
        // one-message ingest while the previous one is still held, as the
        // serving layer holds it.
        let (mut space, _) =
            Semex::open_durable_with(&dir, SemexConfig::default(), journal.clone())
                .expect("open for publishing");
        let mut published = space.snapshot();
        let mut publish_us = Vec::with_capacity(iterations);
        for i in 0..iterations {
            let content =
                format!("From: probe{i}@example.org\nSubject: publish probe {i}\n\nOne message.\n");
            space
                .ingest(SourceSpec::Mbox {
                    name: format!("probe{i}.mbox"),
                    content,
                })
                .expect("one-message ingest");
            space.commit().expect("commit the ingest");
            let t0 = Instant::now();
            let next = space.snapshot();
            publish_us.push(t0.elapsed().as_secs_f64() * 1e6);
            published = next;
        }
        drop(published);
        publish_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
        opens_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let peak = *peaks.iter().max().unwrap();
        let resident = *residents.iter().max().unwrap();
        table.row(vec![
            label.to_string(),
            disk_bytes.to_string(),
            format!("{:.2}", pct(&opens_ms, 0.5)),
            format!("{:.2}", pct(&opens_ms, 0.99)),
            format!("{:.1}", peak as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", resident as f64 / (1024.0 * 1024.0)),
            format!("{:.1}", pct(&publish_us, 0.5)),
        ]);
        records.push(serde_json::json!({
            "scale": label,
            "objects": objects,
            "disk_bytes": disk_bytes,
            "cold_open_p50_ms": pct(&opens_ms, 0.5),
            "cold_open_p99_ms": pct(&opens_ms, 0.99),
            "peak_transient_bytes": peak,
            "resident_bytes": resident,
            "publish_p50_us": pct(&publish_us, 0.5),
        }));
    }
    println!("{}", table.render());
    println!(
        "peak = high-water allocation during the open (decode scratch); \
         resident = bytes still live with the space held open; publish = \
         taking the snapshot a write publishes, after a one-message ingest\n"
    );
    std::fs::remove_dir_all(&scratch).ok();

    let bench = serde_json::json!({
        "experiment": "e15-snapshot",
        "mode": mode,
        "iterations": iterations,
        "scales": records,
    });
    let record = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    if let Some(path) = write_bench("BENCH_snapshot.json", smoke, &record) {
        println!("wrote {path} ({mode}, {} rows)\n", scales.len());
    }
}

// ---------------------------------------------------------------------
// E16: epoch-keyed read caching & single-flight coalescing. A zipf query
// log replayed against two twin servers — one with the read cache, one
// without — over identically seeded tenants: hit rate, cached vs
// uncached latency, allocation per request, and the 8-reader herd that
// must collapse to a single evaluation.
// ---------------------------------------------------------------------
fn e16_cache(smoke: bool) {
    use semex_core::JournalConfig;
    use semex_serve::protocol::{IngestFormat, Request, Response};
    use semex_serve::{serve_tenants, Client, PoolConfig, ServeConfig, TenantRegistry};
    use std::sync::Arc;
    use std::thread;

    let mode = if smoke { "smoke" } else { "full" };
    println!("## E16 — read caching ({mode}): hit rate, latency, coalescing under zipf replay\n");

    let tenants: usize = if smoke { 10 } else { 120 };
    let replay_clients: usize = if smoke { 2 } else { 4 };
    let replay_requests: usize = if smoke { 250 } else { 900 };
    let queries_per_tenant: usize = 5;
    let alloc_reads: usize = if smoke { 30 } else { 100 };

    // One shared per-tenant payload: the synthetic personal mailbox. The
    // same bytes go into every space (tenancy isolates them anyway), so
    // uncached reads cost the same everywhere.
    // Heavy enough that recomputing a read dwarfs the socket round trip
    // (pattern joins and exhaustive searches over hundreds of messages).
    let corpus = generate_personal(&CorpusConfig {
        people: 40,
        organizations: 8,
        venues: 6,
        publications: 60,
        messages: if smoke { 120 } else { 240 },
        ..CorpusConfig::default()
    });
    let seed_files: Vec<(IngestFormat, String, String)> = corpus
        .files
        .iter()
        .filter_map(|(path, content)| {
            let format = if path.ends_with(".mbox") {
                IngestFormat::Mbox
            } else if path.ends_with(".bib") {
                IngestFormat::Bibtex
            } else {
                return None;
            };
            Some((format, path.clone(), content.clone()))
        })
        .collect();
    assert!(seed_files.len() >= 2, "mailboxes and a bibliography");

    let name_of = |i: usize| format!("space-{i:03}");
    // The per-tenant query set: every shape the cache serves, heavy
    // enough (pattern joins, exhaustive search) that a recomputation is
    // worth skipping.
    let query_of = |q: usize| -> Request {
        match q % 5 {
            0 => Request::Query {
                pattern: "?a Sender ?p . ?b Recipient ?p".into(),
            },
            1 => Request::Query {
                pattern: "?m Sender ?p . ?pub AuthoredBy ?p".into(),
            },
            2 => Request::Query {
                pattern: "?pub AuthoredBy ?p . ?pub PublishedIn ?v . ?m Recipient ?p".into(),
            },
            3 => Request::Browse {
                query: "class:Person".into(),
            },
            _ => Request::Search {
                query: "draft review meeting".into(),
                k: 10,
                exhaustive: true,
            },
        }
    };
    let journal = JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    };
    let scratch = std::env::temp_dir().join(format!("semex-e16-{mode}-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    let start = |tag: &str, cache_budget: usize| {
        let registry = TenantRegistry::open(scratch.join(tag)).expect("registry");
        let config = ServeConfig {
            threads: replay_clients + 10,
            ..ServeConfig::default()
        };
        let pool = PoolConfig {
            cache_budget,
            journal: journal.clone(),
            ..PoolConfig::default()
        };
        serve_tenants(registry, "127.0.0.1:0", config, pool).expect("bind")
    };
    let cached = start("cached", 64 << 20);
    let plain = start("plain", 0);

    // Seed both servers identically; epochs match tenant by tenant, so
    // every replayed read hits the same (tenant, epoch, request) key on
    // the cached side each time it recurs.
    for handle in [&cached, &plain] {
        let mut client = Client::connect(handle.addr()).expect("seed client");
        for i in 0..tenants {
            client = client.with_tenant(name_of(i));
            for (format, path, content) in &seed_files {
                let response = client
                    .request(&Request::Ingest {
                        format: *format,
                        name: path.clone(),
                        content: content.clone(),
                    })
                    .expect("seed ingest");
                assert!(matches!(response, Response::Ingested { .. }));
            }
        }
    }

    // Zipf replay: hot spaces and hot queries recur, the cold tail keeps
    // missing. The same deterministic request log runs against both
    // servers, so the latency columns differ only by the cache.
    let zipf_cdf: Arc<Vec<f64>> = {
        let weights: Vec<f64> = (0..tenants)
            .map(|i| 1.0 / ((i + 1) as f64).powf(1.1))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        Arc::new(
            weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect(),
        )
    };
    let replay = |addr: std::net::SocketAddr| -> Vec<f64> {
        let threads: Vec<_> = (0..replay_clients)
            .map(|cid| {
                let cdf = Arc::clone(&zipf_cdf);
                thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("replay client");
                    let mut state = 0xC0FF_EE11u64 ^ ((cid as u64) << 21) ^ 0x9E37_79B9;
                    let mut latencies = Vec::with_capacity(replay_requests);
                    for _ in 0..replay_requests {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                        let pick = cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
                        // Hot queries recur more, and the hot ones are the
                        // expensive joins — the reads worth caching.
                        let q = match (state as usize >> 3) % 10 {
                            0..=3 => 0,
                            4..=6 => 1,
                            7..=8 => 2,
                            _ => 3 + (state as usize >> 13) % (queries_per_tenant - 3),
                        };
                        client = client.with_tenant(format!("space-{pick:03}"));
                        let r0 = Instant::now();
                        client.request(&query_of(q)).expect("replay read");
                        latencies.push(r0.elapsed().as_secs_f64() * 1e6);
                    }
                    latencies
                })
            })
            .collect();
        let mut all: Vec<f64> = threads
            .into_iter()
            .flat_map(|t| t.join().expect("replay thread"))
            .collect();
        all.sort_by(f64::total_cmp);
        all
    };
    let pct = |v: &[f64], p: f64| v[((v.len() - 1) as f64 * p) as usize];

    let uncached_lat = replay(plain.addr());
    let cached_lat = replay(cached.addr());
    let speedup = pct(&uncached_lat, 0.50) / pct(&cached_lat, 0.50).max(1e-9);

    // Allocation per request (the global allocator meter sees the server
    // threads too): a warm hit replays stored bytes through the reused
    // connection buffers, so it must allocate less than a recomputation.
    let alloc_per_request = |addr: std::net::SocketAddr| -> f64 {
        let mut client = Client::connect(addr)
            .expect("alloc client")
            .with_tenant("space-000");
        let request = query_of(0);
        client.request(&request).expect("alloc warm-up");
        let before = alloc_meter::total();
        for _ in 0..alloc_reads {
            client.request(&request).expect("alloc read");
        }
        (alloc_meter::total() - before) as f64 / alloc_reads as f64
    };
    let uncached_alloc = alloc_per_request(plain.addr());
    let cached_alloc = alloc_per_request(cached.addr());

    // The 8-reader herd on a fresh tenant: everyone asks the same
    // uncached question at once; the per-tenant counters must show one
    // evaluation and seven shared answers.
    const HERD: usize = 8;
    let herd_addr = cached.addr();
    {
        let mut client = Client::connect(herd_addr)
            .expect("herd client")
            .with_tenant("herd");
        for (format, path, content) in &seed_files {
            let response = client
                .request(&Request::Ingest {
                    format: *format,
                    name: path.clone(),
                    content: content.clone(),
                })
                .expect("herd seed");
            assert!(matches!(response, Response::Ingested { .. }));
        }
    }
    let barrier = Arc::new(std::sync::Barrier::new(HERD));
    let readers: Vec<_> = (0..HERD)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                let mut client = Client::connect(herd_addr)
                    .expect("herd reader")
                    .with_tenant("herd");
                barrier.wait();
                client.request(&query_of(0)).expect("herd read")
            })
        })
        .collect();
    let answers: Vec<Response> = readers
        .into_iter()
        .map(|r| r.join().expect("herd join"))
        .collect();
    assert!(
        answers.iter().all(|a| a == &answers[0]),
        "one shared answer"
    );
    let herd_stats = {
        let mut client = Client::connect(herd_addr)
            .expect("herd stats")
            .with_tenant("herd");
        match client.request(&Request::Stats).expect("herd stats read") {
            Response::Stats {
                cache: Some(cache), ..
            } => cache,
            other => panic!("expected cached stats, got {other:?}"),
        }
    };
    assert_eq!(herd_stats.misses, 1, "the herd cost one evaluation");
    assert_eq!(
        herd_stats.hits + herd_stats.coalesced,
        (HERD - 1) as u64,
        "seven readers shared the flight: {herd_stats:?}"
    );

    plain.join();
    let report = cached.join();
    let totals = report.cache.expect("the cached server reports totals");
    std::fs::remove_dir_all(&scratch).ok();

    // Hit rate over reads the cache saw (the herd segment included).
    let hit_rate = totals.hits as f64 / (totals.hits + totals.misses).max(1) as f64;

    let mut t = TextTable::new(&["metric", "uncached", "cached"]);
    t.row(vec![
        "read p50 (us)".into(),
        format!("{:.1}", pct(&uncached_lat, 0.50)),
        format!("{:.1}", pct(&cached_lat, 0.50)),
    ]);
    t.row(vec![
        "read p99 (us)".into(),
        format!("{:.1}", pct(&uncached_lat, 0.99)),
        format!("{:.1}", pct(&cached_lat, 0.99)),
    ]);
    t.row(vec![
        "alloc/request (bytes)".into(),
        format!("{uncached_alloc:.0}"),
        format!("{cached_alloc:.0}"),
    ]);
    println!("{}", t.render());
    println!(
        "replay: {} requests over {tenants} tenants, hit rate {:.1}%, p50 speedup {speedup:.1}x; \
         herd: {HERD} readers -> {} miss, {} hit(s), {} coalesced; \
         cache totals: {} hits / {} misses / {} evictions, {} bytes resident\n",
        2 * replay_clients * replay_requests,
        hit_rate * 100.0,
        herd_stats.misses,
        herd_stats.hits,
        herd_stats.coalesced,
        totals.hits,
        totals.misses,
        totals.evictions,
        totals.resident_bytes,
    );

    assert!(
        hit_rate >= 0.60,
        "zipf replay must hit at least 60%, got {:.1}%",
        hit_rate * 100.0
    );
    let wanted = if smoke { 2.0 } else { 5.0 };
    assert!(
        speedup >= wanted,
        "cached p50 must be at least {wanted}x faster, got {speedup:.2}x"
    );
    assert!(
        cached_alloc < uncached_alloc,
        "a warm hit must allocate less than a recomputation: {cached_alloc:.0} vs {uncached_alloc:.0}"
    );

    let bench = serde_json::json!({
        "experiment": "e16-cache",
        "mode": mode,
        "tenants": tenants,
        "replay_requests": 2 * replay_clients * replay_requests,
        "hit_rate": hit_rate,
        "latency_us": {
            "uncached_p50": pct(&uncached_lat, 0.50),
            "uncached_p99": pct(&uncached_lat, 0.99),
            "cached_p50": pct(&cached_lat, 0.50),
            "cached_p99": pct(&cached_lat, 0.99),
            "p50_speedup": speedup,
        },
        "alloc_bytes_per_request": {
            "uncached": uncached_alloc,
            "cached": cached_alloc,
        },
        "herd": {
            "readers": HERD,
            "misses": herd_stats.misses,
            "hits": herd_stats.hits,
            "coalesced": herd_stats.coalesced,
        },
        "totals": {
            "hits": totals.hits,
            "misses": totals.misses,
            "coalesced": totals.coalesced,
            "evictions": totals.evictions,
            "resident_bytes": totals.resident_bytes,
        },
    });
    let record = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    if let Some(path) = write_bench("BENCH_cache.json", smoke, &record) {
        println!(
            "wrote {path} ({mode}, {:.1}% hits, {speedup:.1}x p50)\n",
            hit_rate * 100.0
        );
    }
}

// ---------------------------------------------------------------------
// E17: replication — read scale-out across follower processes, catch-up
// latency, and the synchronous-ack cost of no-lost-acks durability.
// Writes BENCH_replica.json for CI tracking.
// ---------------------------------------------------------------------
fn e17_replica(smoke: bool) {
    use semex_core::{JournalConfig, Semex, SemexConfig};
    use semex_replica::{follow, replicate, Follower, HubConfig};
    use semex_serve::protocol::{IngestFormat, Request, Response};
    use semex_serve::{serve, Client, PoolConfig, ServeConfig, TenantId};
    use std::net::SocketAddr;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    let mode = if smoke { "smoke" } else { "full" };
    println!(
        "## E17 — replication ({mode}): follower catch-up, byte-identical reads, \
         and read scale-out\n"
    );

    // Follower counts per measured scale; scale 0 (primary alone) is the
    // baseline every other row is normalized against.
    let scales: Vec<usize> = if smoke { vec![0, 1] } else { vec![0, 1, 2, 4] };
    let max_followers = *scales.iter().max().unwrap();
    let replay_clients: usize = if smoke { 2 } else { 6 };
    let reads_per_client: usize = if smoke { 60 } else { 300 };

    let corpus = generate_personal(&CorpusConfig {
        people: 40,
        organizations: 8,
        venues: 6,
        publications: 60,
        messages: if smoke { 120 } else { 240 },
        ..CorpusConfig::default()
    });
    let seed_files: Vec<(IngestFormat, String, String)> = corpus
        .files
        .iter()
        .filter_map(|(path, content)| {
            let format = if path.ends_with(".mbox") {
                IngestFormat::Mbox
            } else if path.ends_with(".bib") {
                IngestFormat::Bibtex
            } else {
                return None;
            };
            Some((format, path.clone(), content.clone()))
        })
        .collect();
    assert!(seed_files.len() >= 2, "mailboxes and a bibliography");

    // The read mix: the expensive association joins a replica exists to
    // absorb, plus a pruned search (same shapes as E16's hot set).
    let query_of = |q: usize| -> Request {
        match q % 4 {
            0 => Request::Query {
                pattern: "?a Sender ?p . ?b Recipient ?p".into(),
            },
            1 => Request::Query {
                pattern: "?m Sender ?p . ?pub AuthoredBy ?p".into(),
            },
            2 => Request::Query {
                pattern: "?pub AuthoredBy ?p . ?pub PublishedIn ?v".into(),
            },
            _ => Request::Search {
                query: "draft review meeting".into(),
                k: 10,
                exhaustive: true,
            },
        }
    };
    let journal = JournalConfig {
        fsync: false,
        ..JournalConfig::default()
    };
    let scratch = std::env::temp_dir().join(format!("semex-e17-{mode}-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();

    // The primary: a durable single-space serve stack with a replication
    // hub tapping its write path, exactly the `semex serve
    // --listen-replication` wiring.
    let primary_dir = scratch.join("primary");
    let (master, _) =
        Semex::open_durable_with(&primary_dir, SemexConfig::default(), journal.clone())
            .expect("open primary journal");
    let mut config = ServeConfig {
        threads: replay_clients + 4,
        ..ServeConfig::default()
    };
    let hub = replicate(
        &primary_dir,
        master.store().event_head(),
        "127.0.0.1:0",
        &mut config,
        HubConfig::default(),
    )
    .expect("start replication hub");
    let primary =
        serve(master, "127.0.0.1:0", config, PoolConfig::default()).expect("serve primary");

    // Seed before any follower exists: the late followers must bootstrap
    // the whole history (snapshot or journal tail) rather than watch it
    // happen.
    {
        let mut client = Client::connect(primary.addr()).expect("seed client");
        for (format, path, content) in &seed_files {
            let response = client
                .request(&Request::Ingest {
                    format: *format,
                    name: path.clone(),
                    content: content.clone(),
                })
                .expect("seed ingest");
            assert!(matches!(response, Response::Ingested { .. }));
        }
    }
    let seeded_head = primary.epoch_of(TenantId::DEFAULT).expect("primary epoch");

    // One timed throughput pass: `replay_clients` threads, each pinned
    // round-robin to one read endpoint, burning through the same
    // deterministic request mix. Returns (reads/sec, p50 us, p99 us).
    let throughput = |endpoints: &[SocketAddr]| -> (f64, f64, f64) {
        let endpoints: Arc<Vec<SocketAddr>> = Arc::new(endpoints.to_vec());
        let t0 = Instant::now();
        let threads: Vec<_> = (0..replay_clients)
            .map(|cid| {
                let endpoints = Arc::clone(&endpoints);
                thread::spawn(move || {
                    let addr = endpoints[cid % endpoints.len()];
                    let mut client = Client::connect(addr).expect("replay client");
                    let mut latencies = Vec::with_capacity(reads_per_client);
                    for i in 0..reads_per_client {
                        let r0 = Instant::now();
                        let response = client.request(&query_of(cid + i)).expect("replay read");
                        assert!(
                            !matches!(response, Response::Error { .. }),
                            "replay read refused: {response:?}"
                        );
                        latencies.push(r0.elapsed().as_secs_f64() * 1e6);
                    }
                    latencies
                })
            })
            .collect();
        let mut all: Vec<f64> = threads
            .into_iter()
            .flat_map(|t| t.join().expect("replay thread"))
            .collect();
        let elapsed = t0.elapsed().as_secs_f64();
        all.sort_by(f64::total_cmp);
        let pct = |p: f64| all[((all.len() - 1) as f64 * p) as usize];
        (all.len() as f64 / elapsed, pct(0.50), pct(0.99))
    };

    // The write a scale row times: one more bibliography entry. With n
    // connected followers its ack waits for all n (the no-lost-acks
    // gate), so the delta over the baseline is the price of synchronous
    // replication.
    let timed_write = |tag: &str| -> f64 {
        let mut client = Client::connect(primary.addr()).expect("write client");
        let t0 = Instant::now();
        let response = client
            .request(&Request::Ingest {
                format: IngestFormat::Bibtex,
                name: format!("extra-{tag}"),
                content: format!(
                    "@article{{x{tag}, title={{Replication Benchmarks {tag}}}, \
                     author={{Index, Semantic}}, year=2026}}"
                ),
            })
            .expect("timed write");
        assert!(matches!(response, Response::Ingested { .. }));
        t0.elapsed().as_secs_f64() * 1e3
    };

    let mut followers: Vec<Follower> = Vec::new();
    let mut follower_addrs: Vec<SocketAddr> = Vec::new();
    let mut catchup_ms: Vec<f64> = Vec::new();
    let mut rows: Vec<(usize, f64, f64, f64, f64)> = Vec::new();

    for &n in &scales {
        // Grow the follower set to n, timing each catch-up: follow() is
        // bootstrap + recover + serve + pull, and the ack at the
        // primary's head is the moment the replica is serviceable.
        while followers.len() < n {
            let i = followers.len();
            let name = format!("f{i}");
            let dir = scratch.join(&name);
            let f0 = Instant::now();
            let follower = follow(
                hub.addr(),
                &dir,
                "127.0.0.1:0",
                ServeConfig {
                    threads: replay_clients + 2,
                    ..ServeConfig::default()
                },
                PoolConfig {
                    journal: journal.clone(),
                    ..PoolConfig::default()
                },
                1 << 20,
                name.clone(),
            )
            .expect("stand up follower");
            let head = primary.epoch_of(TenantId::DEFAULT).expect("primary epoch");
            assert!(
                hub.wait_for_ack(&name, head, Duration::from_secs(60)),
                "{name} never caught up to head {head}"
            );
            catchup_ms.push(f0.elapsed().as_secs_f64() * 1e3);
            follower_addrs.push(follower.serve.addr());
            followers.push(follower);
        }
        let mut endpoints = vec![primary.addr()];
        endpoints.extend(follower_addrs.iter().take(n));
        let (rps, p50, p99) = throughput(&endpoints);
        let write_ms = timed_write(&format!("s{n}"));
        rows.push((n, rps, p50, p99, write_ms));
    }

    // Byte-identity: after the last gated write, every follower holds the
    // primary's head (its ack released the write), so the same request
    // must produce the same answer — epoch included — on every node.
    let head = primary.epoch_of(TenantId::DEFAULT).expect("primary epoch");
    assert!(head > seeded_head, "the timed writes advanced the head");
    let probes = [
        Request::Search {
            query: "replication benchmarks".into(),
            k: 5,
            exhaustive: false,
        },
        Request::Query {
            pattern: "?pub AuthoredBy ?p".into(),
        },
        Request::View {
            query: "replication benchmarks".into(),
        },
        Request::Stats,
    ];
    let mut primary_client = Client::connect(primary.addr()).expect("probe client");
    let mut identical = 0usize;
    for request in &probes {
        let want = primary_client.request(request).expect("primary probe");
        assert!(
            !matches!(want, Response::Error { .. }),
            "primary probe errored: {want:?}"
        );
        for (i, addr) in follower_addrs.iter().enumerate() {
            let mut client = Client::connect(*addr).expect("follower probe");
            let got = client.request(request).expect("follower probe read");
            assert_eq!(got, want, "follower f{i} diverges on {request:?}");
            identical += 1;
        }
    }

    let mut t = TextTable::new(&[
        "followers",
        "reads/sec",
        "read p50 (us)",
        "read p99 (us)",
        "write ack (ms)",
    ]);
    let base_rps = rows[0].1;
    for (n, rps, p50, p99, write_ms) in &rows {
        t.row(vec![
            n.to_string(),
            format!("{rps:.0}"),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
            format!("{write_ms:.2}"),
        ]);
    }
    println!("{}", t.render());
    let max_rps = rows.last().unwrap().1;
    let scaling = max_rps / base_rps.max(1e-9);
    println!(
        "catch-up: {} follower(s), first at {:.1} ms (bootstrap + tail to epoch {seeded_head}); \
         {identical} probe(s) byte-identical across {} replica(s); \
         {max_followers}-replica throughput {scaling:.2}x the primary alone\n",
        catchup_ms.len(),
        catchup_ms.first().copied().unwrap_or(0.0),
        follower_addrs.len(),
    );

    // Scale-out headroom is hardware-bound (this harness runs every
    // replica in one process); the invariants are not. Catch-up and
    // byte-identity are asserted above. Guard against the replica path
    // actively costing throughput: distributing the same offered load
    // over more serve stacks must not halve it.
    assert!(
        scaling >= 0.5,
        "read throughput collapsed when replicas were added: {scaling:.2}x"
    );

    let verdicts = serde_json::json!({
        "experiment": "e17-replica",
        "mode": mode,
        "seeded_head": seeded_head,
        "final_head": head,
        "replay_clients": replay_clients,
        "scales": rows
            .iter()
            .map(|&(n, rps, p50, p99, write_ms)| {
                serde_json::json!({
                    "followers": n,
                    "reads_per_sec": rps,
                    "read_p50_us": p50,
                    "read_p99_us": p99,
                    "write_ack_ms": write_ms,
                })
            })
            .collect::<Vec<_>>(),
        "catchup_ms": catchup_ms,
        "identical_probes": identical,
        "throughput_scaling_at_max": scaling,
    });
    let record = serde_json::to_string_pretty(&verdicts).expect("bench record serializes");
    if let Some(path) = write_bench("BENCH_replica.json", smoke, &record) {
        println!(
            "wrote {path} ({mode}, {max_followers} follower(s), \
             {scaling:.2}x at max scale)\n"
        );
    }

    for follower in followers {
        follower.serve.shutdown();
        follower.serve.join();
    }
    primary.join();
    hub.shutdown();
    std::fs::remove_dir_all(&scratch).ok();
}

// ---------------------------------------------------------------------
// E18: the association-path query engine — multi-hop latency vs graph
// size and hop count, worker-thread scaling on large frontiers, and the
// over-the-wire cache uplift for a repeated path query.
// Writes BENCH_query.json for CI tracking.
// ---------------------------------------------------------------------
fn e18_query(smoke: bool) {
    use semex_core::JournalConfig;
    use semex_model::names::assoc;
    use semex_query::exec::run;
    use semex_query::{ExecConfig, PathQuery};
    use semex_serve::protocol::{IngestFormat, Request, Response};
    use semex_serve::{serve_tenants, Client, PoolConfig, ServeConfig, TenantRegistry};
    use semex_store::{SourceInfo, SourceKind};

    let mode = if smoke { "smoke" } else { "full" };
    println!("## E18 — path queries ({mode}): hop latency, thread scaling, cache uplift\n");

    let sizes: &[usize] = if smoke {
        &[100, 300]
    } else {
        &[500, 2_000, 8_000]
    };
    let sweep_reps: usize = if smoke { 10 } else { 40 };
    let thread_reps: usize = if smoke { 8 } else { 30 };
    let wire_reads: usize = if smoke { 40 } else { 200 };

    // A synthetic email-and-papers graph shaped like the personal store:
    // `persons` people, 4x as many messages (one sender, 1-2 recipients,
    // a date), half as many papers (1-3 authors). Deterministic xorshift
    // wiring so every run measures the same graph.
    let build_graph = |persons: usize| -> Store {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("e18", SourceKind::Synthetic));
        let m = st.model();
        let c_person = m.class(class::PERSON).unwrap();
        let c_message = m.class(class::MESSAGE).unwrap();
        let c_paper = m.class(class::PUBLICATION).unwrap();
        let a_sender = m.assoc(assoc::SENDER).unwrap();
        let a_recipient = m.assoc(assoc::RECIPIENT).unwrap();
        let a_authored = m.assoc(assoc::AUTHORED_BY).unwrap();
        let a_date = m.attr(attr::DATE).unwrap();
        let mut state = 0xE18_0000u64 | persons as u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let people: Vec<_> = (0..persons).map(|_| st.add_object(c_person)).collect();
        let papers: Vec<_> = (0..persons.div_ceil(2))
            .map(|_| st.add_object(c_paper))
            .collect();
        for _ in 0..persons * 4 {
            let msg = st.add_object(c_message);
            st.add_triple(msg, a_sender, people[next() as usize % persons], src)
                .unwrap();
            for _ in 0..1 + next() as usize % 2 {
                st.add_triple(msg, a_recipient, people[next() as usize % persons], src)
                    .unwrap();
            }
            let date = 1_000_000_000 + (next() % 300_000_000) as i64;
            st.add_attr(msg, a_date, Value::Date(date)).unwrap();
        }
        for &paper in &papers {
            for _ in 0..1 + next() as usize % 3 {
                st.add_triple(paper, a_authored, people[next() as usize % persons], src)
                    .unwrap();
            }
        }
        st
    };
    let plan_of = |st: &Store, text: &str| -> PathQuery {
        semex_query::parse::parse(st, text)
            .expect("e18 plan parses")
            .optimize()
    };
    let time_runs = |st: &Store, plan: &PathQuery, cfg: &ExecConfig, reps: usize| {
        let mut lat = Vec::with_capacity(reps);
        let mut results = 0usize;
        for _ in 0..reps {
            let t0 = Instant::now();
            results = run(st, plan, cfg).expect("e18 run").len();
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        lat.sort_by(f64::total_cmp);
        (lat, results)
    };
    let pct = |v: &[f64], p: f64| v[((v.len() - 1) as f64 * p) as usize];
    let one = ExecConfig::default();

    // The acceptance-style three-hop question ("papers by coauthors of
    // the people emailed in a window"), expressed over the raw assocs so
    // it runs on the synthetic graph; the date filter exercises the
    // attribute-eval path.
    let three_hop = "* :Person <-Sender [date in 1000000000..1200000000] ->Recipient <-AuthoredBy";

    // ---- latency vs graph size ---------------------------------------
    let mut size_rows = Vec::new();
    let mut t = TextTable::new(&["persons", "objects", "results", "p50 (us)", "p99 (us)"]);
    for &persons in sizes {
        let st = build_graph(persons);
        let plan = plan_of(&st, three_hop);
        let (lat, results) = time_runs(&st, &plan, &one, sweep_reps);
        assert!(results > 0, "the three-hop sweep must return something");
        let objects = st.objects().count();
        t.row(vec![
            format!("{persons}"),
            format!("{objects}"),
            format!("{results}"),
            format!("{:.1}", pct(&lat, 0.50)),
            format!("{:.1}", pct(&lat, 0.99)),
        ]);
        size_rows.push(serde_json::json!({
            "persons": persons,
            "objects": objects,
            "results": results,
            "p50_us": pct(&lat, 0.50),
            "p99_us": pct(&lat, 0.99),
        }));
    }
    println!(
        "three hops vs graph size ({sweep_reps} reps, 1 thread):\n{}",
        t.render()
    );

    // ---- latency vs hop count (largest graph) ------------------------
    let st = build_graph(*sizes.last().unwrap());
    let hop_texts = [
        "* :Person <-Sender",
        "* :Person <-Sender ->Recipient",
        "* :Person <-Sender ->Recipient <-AuthoredBy",
        "* :Person <-Sender ->Recipient <-AuthoredBy ->AuthoredBy",
    ];
    let mut hop_rows = Vec::new();
    let mut t = TextTable::new(&["hops", "results", "p50 (us)", "p99 (us)"]);
    for (hops, text) in hop_texts.iter().enumerate() {
        let plan = plan_of(&st, text);
        let (lat, results) = time_runs(&st, &plan, &one, sweep_reps);
        assert!(
            results > 0,
            "hop sweep must return something at {} hops",
            hops + 1
        );
        t.row(vec![
            format!("{}", hops + 1),
            format!("{results}"),
            format!("{:.1}", pct(&lat, 0.50)),
            format!("{:.1}", pct(&lat, 0.99)),
        ]);
        hop_rows.push(serde_json::json!({
            "hops": hops + 1,
            "results": results,
            "p50_us": pct(&lat, 0.50),
            "p99_us": pct(&lat, 0.99),
        }));
    }
    println!("hop count on the largest graph:\n{}", t.render());

    // ---- worker-thread scaling ---------------------------------------
    // The frontier after hop one is every message (well past
    // PAR_MIN_FRONTIER), so the batched expansion actually parallelises;
    // determinism demands bit-identical answers at every thread count.
    let deep = plan_of(&st, hop_texts[3]);
    let baseline = run(&st, &deep, &one).expect("e18 baseline");
    let mut thread_rows = Vec::new();
    let mut base_p50 = 0.0f64;
    let mut t = TextTable::new(&["threads", "p50 (us)", "speedup"]);
    for &threads in &[1usize, 2, 4, 8] {
        let cfg = ExecConfig {
            threads,
            ..ExecConfig::default()
        };
        assert_eq!(
            run(&st, &deep, &cfg).expect("e18 threaded run"),
            baseline,
            "answers are a pure function of (snapshot, plan) at {threads} threads"
        );
        let (lat, _) = time_runs(&st, &deep, &cfg, thread_reps);
        let p50 = pct(&lat, 0.50);
        if threads == 1 {
            base_p50 = p50;
        }
        let speedup = base_p50 / p50.max(1e-9);
        t.row(vec![
            format!("{threads}"),
            format!("{p50:.1}"),
            format!("{speedup:.2}x"),
        ]);
        thread_rows.push(serde_json::json!({
            "threads": threads,
            "p50_us": p50,
            "speedup": speedup,
        }));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "four hops, thread scaling ({thread_reps} reps, {cores} core(s) available; \
         expect slowdown when threads exceed cores):\n{}",
        t.render()
    );

    // ---- over-the-wire cache uplift ----------------------------------
    // Twin servers over an identically seeded personal space: the cached
    // one replays stored bytes for a recurring path query, the plain one
    // re-plans and re-walks every time.
    let corpus = generate_personal(&CorpusConfig {
        people: 80,
        organizations: 8,
        venues: 6,
        publications: 120,
        messages: if smoke { 400 } else { 800 },
        ..CorpusConfig::default()
    });
    let seed_files: Vec<(IngestFormat, String, String)> = corpus
        .files
        .iter()
        .filter_map(|(path, content)| {
            let format = if path.ends_with(".mbox") {
                IngestFormat::Mbox
            } else if path.ends_with(".bib") {
                IngestFormat::Bibtex
            } else {
                return None;
            };
            Some((format, path.clone(), content.clone()))
        })
        .collect();
    let scratch = std::env::temp_dir().join(format!("semex-e18-{mode}-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    let start = |tag: &str, cache_budget: usize| {
        let registry = TenantRegistry::open(scratch.join(tag)).expect("registry");
        let pool = PoolConfig {
            cache_budget,
            journal: JournalConfig {
                fsync: false,
                ..JournalConfig::default()
            },
            ..PoolConfig::default()
        };
        serve_tenants(registry, "127.0.0.1:0", ServeConfig::default(), pool).expect("bind")
    };
    let cached = start("cached", 32 << 20);
    let plain = start("plain", 0);
    for handle in [&cached, &plain] {
        let mut client = Client::connect(handle.addr())
            .expect("seed client")
            .with_tenant("pim");
        for (format, path, content) in &seed_files {
            let response = client
                .request(&Request::Ingest {
                    format: *format,
                    name: path.clone(),
                    content: content.clone(),
                })
                .expect("seed ingest");
            assert!(matches!(response, Response::Ingested { .. }));
        }
    }
    // Four hops and a small page: the uncached side re-plans and re-walks
    // the whole traversal every time, the cached side replays a few
    // hundred bytes.
    let wire_request = Request::PathQuery {
        path: "* :Person <-Sender ->Recipient <-AuthoredBy ->AuthoredBy".into(),
        page: 10,
        cursor: None,
    };
    let measure = |addr: std::net::SocketAddr| -> (Response, Vec<f64>) {
        let mut client = Client::connect(addr)
            .expect("wire client")
            .with_tenant("pim");
        let first = client.request(&wire_request).expect("wire warm-up");
        let mut lat = Vec::with_capacity(wire_reads);
        for _ in 0..wire_reads {
            let t0 = Instant::now();
            client.request(&wire_request).expect("wire read");
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        lat.sort_by(f64::total_cmp);
        (first, lat)
    };
    let (plain_first, plain_lat) = measure(plain.addr());
    let (cached_first, cached_lat) = measure(cached.addr());
    assert!(
        matches!(plain_first, Response::PathPage { .. }),
        "the wire query answers: {plain_first:?}"
    );
    assert_eq!(cached_first, plain_first, "twins agree on the path page");
    let uplift = pct(&plain_lat, 0.50) / pct(&cached_lat, 0.50).max(1e-9);
    println!(
        "wire replay ({wire_reads} reads): uncached p50 {:.1}us, cached p50 {:.1}us, \
         {uplift:.1}x uplift\n",
        pct(&plain_lat, 0.50),
        pct(&cached_lat, 0.50),
    );
    cached.join();
    plain.join();
    std::fs::remove_dir_all(&scratch).ok();

    let wanted = if smoke { 1.5 } else { 2.0 };
    assert!(
        uplift >= wanted,
        "a cached path query must replay at least {wanted}x faster, got {uplift:.2}x"
    );

    let bench = serde_json::json!({
        "experiment": "e18-query",
        "mode": mode,
        "sweep_reps": sweep_reps,
        "graph_size": size_rows,
        "hops": hop_rows,
        "cores_available": cores,
        "threads": thread_rows,
        "wire_cache": {
            "reads": wire_reads,
            "uncached_p50_us": pct(&plain_lat, 0.50),
            "uncached_p99_us": pct(&plain_lat, 0.99),
            "cached_p50_us": pct(&cached_lat, 0.50),
            "cached_p99_us": pct(&cached_lat, 0.99),
            "p50_uplift": uplift,
        },
    });
    let record = serde_json::to_string_pretty(&bench).expect("bench record serializes");
    if let Some(path) = write_bench("BENCH_query.json", smoke, &record) {
        println!("wrote {path} ({mode}, {uplift:.1}x cached uplift)\n");
    }
}

/// Write an experiment's BENCH record and return the path written. Full
/// runs write the committed `BENCH_*.json` in the working directory (the
/// repository root); smoke runs write `target/bench-smoke/BENCH_*.json`,
/// so a CI pass leaves tracked files alone.
fn write_bench(name: &str, smoke: bool, record: &str) -> Option<String> {
    let dir = if smoke { "target/bench-smoke" } else { "." };
    let path = format!("{dir}/{name}");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, record)) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("could not write {path}: {e}\n");
            None
        }
    }
}

// Quiet the unused-import warning when a subset of experiments runs.
#[allow(unused)]
fn _anchor(_: &Store) {}
