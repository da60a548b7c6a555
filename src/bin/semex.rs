//! `semex` — command-line front end to the SEMEX platform.
//!
//! ```text
//! semex build <dir> -o space.json        index a directory tree into a snapshot
//! semex build <dir> --durable -o space.journal/   ...into a journal directory instead
//! semex demo  -o space.json [--seed N] [--scale F] [--durable]   build from a generated demo corpus
//!
//! `build` and `demo` accept `--recon-threads N` to pin the reconciliation
//! thread budget (defaults to the machine's parallelism; results are
//! identical at any setting).
//! semex journal-compact <space.journal>  fold a journal into a fresh binary
//!                                        snapshot (a legacy JSON snapshot
//!                                        turns binary here)
//! semex stats <space.json>               show the association-DB inventory
//! semex search <space.json> [--exhaustive] <query...>   object-centric keyword
//!                                        search (--exhaustive bypasses the
//!                                        pruned top-k evaluator)
//! semex show <space.json> <query...>     full view of the top hit (attrs, links, sources)
//! semex explain <space.json> <query...>  provenance of every fact about the top hit
//! semex coauthors <space.json> <name...> derived-association browse
//! semex path <space.json> <from> <to>    association path between two people
//! semex query <space.json> '<patterns>'  triple-pattern query, e.g.
//!                                        '?pub AuthoredBy ?p . ?pub PublishedIn "SIGMOD"'
//! semex query <space.json> --path '<path>' [--page N] [--cursor TOK] [--threads N]
//!                                        association-path query, e.g.
//!                                        'Person("Ann") <-Sender ->Recipient ->CoAuthor <-AuthoredBy'
//!                                        (pages are deterministic; resume
//!                                        with the printed cursor)
//! semex top <space.json>                 importance-ranked people
//! semex repl <space.json>                 interactive session (search / show /
//!                                         browse / query / quit)
//! semex timeline <space.json> <name...>   monthly activity of a person
//! semex communities <space.json>          CoAuthor communities
//! semex serve <space> [--addr H:P] [--threads N] [--cache-mb N]   serve the
//!                                         space over TCP (snapshot-isolated
//!                                         reads, serialized durable writes,
//!                                         optional epoch-keyed read cache;
//!                                         see semex-serve)
//! semex serve --tenants <root> [--budget-mb N] [--writers N]   serve every
//!                                         space under <root>, one journal
//!                                         directory per tenant, LRU-evicted
//!                                         under the resident-memory budget
//! semex serve <journal-dir> --listen-replication H:P   additionally ship the
//!                                         journal to followers; client acks
//!                                         wait for the connected follower set
//! semex serve <journal-dir> --replicate-from H:P [--max-lag N]   run as a
//!                                         read replica of the primary at H:P
//!                                         (bootstraps via snapshot + journal
//!                                         tail; writes answer `not_primary`)
//! semex promote <addr>                    promote a follower to primary after
//!                                         primary loss (wait-for-durable-
//!                                         prefix handshake; idempotent)
//! semex client <addr> [--tenant NAME] [--retries N] <request...>
//!                                         talk to a running server: search,
//!                                         query, pathq, show, browse, stats,
//!                                         ingest, integrate, same, distinct,
//!                                         promote, shutdown
//! ```
//!
//! Wherever a command takes a `<space.json>` snapshot, a journal directory
//! (created with `--durable`) works too: the space is recovered from its
//! snapshot plus write-ahead-log replay.

use semex::corpus::{generate_personal, CorpusConfig};
use semex::{JournalConfig, Semex, SemexBuilder, SemexConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  semex build <dir> [--durable] [--recon-threads N] -o <snapshot.json | journal-dir>\n  semex demo [--durable] [--recon-threads N] -o <snapshot.json | journal-dir> [--seed N] [--scale F]\n  semex journal-compact <journal-dir>\n  semex stats <space>\n  semex search <space> [--exhaustive] <query...>\n  semex show <space> <query...>\n  semex explain <space> <query...>\n  semex coauthors <space> <person name...>\n  semex path <space> <from name> -- <to name>\n  semex query <space> '<pattern query>'\n  semex query <space> --path '<path query>' [--page N] [--cursor TOK] [--threads N]\n  semex top <space>\n  semex repl <space>\n  semex timeline <space> <person>\n  semex communities <space>\n  semex serve <space> [--addr HOST:PORT] [--threads N] [--writers N] [--cache-mb N]\n  semex serve --tenants <root> [--budget-mb N] [--cache-mb N] [--addr HOST:PORT] [--threads N] [--writers N]\n  semex serve <journal-dir> --listen-replication HOST:PORT [serve flags...]\n  semex serve <journal-dir> --replicate-from HOST:PORT [--max-lag N] [--follower-name NAME] [serve flags...]\n  semex promote <addr>\n  semex client <addr> [--tenant NAME] [--retries N] <request...>\n  semex client <addr> search [--exhaustive] <query...>\n  semex client <addr> query '<patterns>'\n  semex client <addr> pathq '<path query>' [--page N] [--cursor TOK]\n  semex client <addr> show <query...>\n  semex client <addr> browse <query...>\n  semex client <addr> stats\n  semex client <addr> ingest <mbox|vcard|bibtex|latex|ical> <name> <file>\n  semex client <addr> integrate <name> <file.csv>\n  semex client <addr> same <id> <id>\n  semex client <addr> distinct <id> <id>\n  semex client <addr> promote\n  semex client <addr> shutdown\n\n<space> is a snapshot file or a --durable journal directory.\nserve on a journal directory commits every acked write; on a snapshot,\nwrites live only for the session."
    );
    ExitCode::from(2)
}

/// Print what recovery had to repair: damage notes, and any repair steps
/// that themselves failed (those leave the journal read-only until a clean
/// reopen, so the operator must see them).
fn print_recovery(report: &semex::core::RecoveryReport) {
    if let Some(d) = &report.damage {
        eprintln!(
            "semex: journal damage ({:?} in {}) repaired; {} event(s) recovered",
            d.kind,
            d.segment.display(),
            report.events_applied
        );
    }
    for w in &report.warnings {
        eprintln!("semex: journal recovery warning: {w}");
    }
    if !report.warnings.is_empty() {
        eprintln!(
            "semex: the journal could not be fully repaired; it is read-only until the \
             underlying problem (disk space, permissions) is fixed and the space is reopened"
        );
    }
}

/// Open a space: a snapshot file, or a journal directory (recovered from
/// snapshot + write-ahead-log replay).
fn load(path: &str) -> Result<Semex, String> {
    let p = Path::new(path);
    if p.is_dir() {
        let (durable, report) = Semex::open_durable(p, SemexConfig::default())
            .map_err(|e| format!("cannot open journal {path}: {e}"))?;
        print_recovery(&report);
        Ok(durable)
    } else {
        Semex::load(p, SemexConfig::default())
            .map_err(|e| format!("cannot load snapshot {path}: {e}"))
    }
}

fn top_hit(semex: &Semex, query: &str) -> Option<semex::core::SearchResult> {
    semex.search(query, 1).into_iter().next()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        return usage();
    };
    let result = match cmd {
        "build" => cmd_build(&args[1..]),
        "demo" => cmd_demo(&args[1..]),
        "journal-compact" => cmd_journal_compact(&args[1..]),
        "stats" => cmd_stats(&args[1..]),
        "search" => cmd_query(&args[1..], QueryMode::Search),
        "show" => cmd_query(&args[1..], QueryMode::Show),
        "explain" => cmd_query(&args[1..], QueryMode::Explain),
        "coauthors" => cmd_query(&args[1..], QueryMode::CoAuthors),
        "path" => cmd_path(&args[1..]),
        "query" => cmd_pattern_query(&args[1..]),
        "top" => cmd_top(&args[1..]),
        "repl" => cmd_repl(&args[1..]),
        "timeline" => cmd_timeline(&args[1..]),
        "communities" => cmd_communities(&args[1..]),
        "serve" => cmd_serve(&args[1..]),
        "promote" => cmd_promote(&args[1..]),
        "client" => cmd_client(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("semex: {e}");
            ExitCode::FAILURE
        }
    }
}

fn out_flag(args: &[String]) -> Option<(PathBuf, Vec<&String>)> {
    let mut rest = Vec::new();
    let mut out = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "-o" || a == "--out" {
            out = it.next().map(PathBuf::from);
        } else {
            rest.push(a);
        }
    }
    out.map(|o| (o, rest))
}

/// Persist a freshly built platform: plain snapshot, or (`--durable`) a
/// journal directory seeded with the built state.
fn persist(semex: Semex, out: &Path, durable: bool) -> Result<(), String> {
    if durable {
        let d = semex
            .into_durable(out, JournalConfig::default())
            .map_err(|e| e.to_string())?;
        println!(
            "journal initialized at {} (epoch {})",
            out.display(),
            d.journal().map(|j| j.epoch()).unwrap_or_default()
        );
    } else {
        semex.save(out).map_err(|e| e.to_string())?;
        println!("snapshot written to {}", out.display());
    }
    Ok(())
}

/// Parse `--recon-threads N` out of an argument list, returning the
/// remaining arguments and the configuration to build with.
fn recon_threads_flag(args: Vec<&String>) -> Result<(Vec<&String>, SemexConfig), String> {
    let mut config = SemexConfig::default();
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--recon-threads" {
            config.recon.threads = it
                .next()
                .and_then(|s| s.parse().ok())
                .filter(|&n: &usize| n >= 1)
                .ok_or("--recon-threads needs a positive number")?;
        } else {
            rest.push(a);
        }
    }
    Ok((rest, config))
}

fn cmd_build(args: &[String]) -> Result<(), String> {
    let Some((out, rest)) = out_flag(args) else {
        return Err("build requires -o <snapshot.json | journal-dir>".into());
    };
    let durable = rest.iter().any(|a| a.as_str() == "--durable");
    let rest: Vec<&String> = rest
        .into_iter()
        .filter(|a| a.as_str() != "--durable")
        .collect();
    let (rest, config) = recon_threads_flag(rest)?;
    let [dir] = rest.as_slice() else {
        return Err("build requires exactly one directory".into());
    };
    let semex = SemexBuilder::new()
        .with_config(config)
        .add_directory("home", dir.as_str())
        .build()
        .map_err(|e| e.to_string())?;
    print_build(&semex);
    persist(semex, &out, durable)
}

fn cmd_journal_compact(args: &[String]) -> Result<(), String> {
    let [dir] = args else {
        return Err("journal-compact requires a journal directory".into());
    };
    let dir = dir.as_str();
    let (mut durable, report) = Semex::open_durable(Path::new(dir), SemexConfig::default())
        .map_err(|e| format!("cannot open journal {dir}: {e}"))?;
    print_recovery(&report);
    println!(
        "recovered epoch {}: snapshot + {} replayed event(s) across {} segment(s)",
        report.epoch, report.events_applied, report.segments_replayed
    );
    let c = durable.compact().map_err(|e| e.to_string())?;
    println!(
        "compacted into epoch {}: folded {} event(s), removed {} file(s) ({} bytes)",
        c.epoch, c.folded_events, c.removed_files, c.removed_bytes
    );
    Ok(())
}

fn cmd_demo(args: &[String]) -> Result<(), String> {
    let Some((out, rest)) = out_flag(args) else {
        return Err("demo requires -o <snapshot.json | journal-dir>".into());
    };
    let (rest, config) = recon_threads_flag(rest)?;
    let mut seed = 2005u64;
    let mut scale = 1.0f64;
    let mut durable = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--durable" => durable = true,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs a number")?;
            }
            "--scale" => {
                scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--scale needs a number")?;
            }
            other => return Err(format!("unknown demo flag {other:?}")),
        }
    }
    let corpus = generate_personal(
        &CorpusConfig {
            seed,
            ..CorpusConfig::default()
        }
        .scaled_size(scale),
    );
    let dir = std::env::temp_dir().join(format!("semex-demo-{}", std::process::id()));
    corpus.write_to(&dir).map_err(|e| e.to_string())?;
    let semex = SemexBuilder::new()
        .with_config(config)
        .add_directory("demo-corpus", &dir)
        .build()
        .map_err(|e| e.to_string())?;
    std::fs::remove_dir_all(&dir).ok();
    print_build(&semex);
    persist(semex, &out, durable)
}

fn print_build(semex: &Semex) {
    let report = semex.report();
    for (source, stats) in &report.extraction {
        println!(
            "extracted {source}: {} records, {} references, {} links",
            stats.records, stats.objects, stats.triples
        );
    }
    if let Some(r) = &report.recon {
        println!(
            "reconciled {} references: {} merges in {:.1?} ({} pooled scores, {} verdict hits)",
            r.refs, r.merges, r.elapsed, r.pooled_scores, r.verdict_hits
        );
    }
    println!(
        "indexed {} objects in {:.1?}",
        report.indexed, report.elapsed
    );
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("stats requires a snapshot path".into());
    };
    let semex = load(path)?;
    print!("{}", semex.stats().table());
    Ok(())
}

enum QueryMode {
    Search,
    Show,
    Explain,
    CoAuthors,
}

fn cmd_query(args: &[String], mode: QueryMode) -> Result<(), String> {
    let [path, query @ ..] = args else {
        return Err("missing snapshot path".into());
    };
    // `search --exhaustive` runs the reference scorer instead of the pruned
    // top-k evaluator (results are identical; the flag exists for
    // verification and timing comparisons).
    let exhaustive = query.iter().any(|a| a.as_str() == "--exhaustive");
    let query: Vec<&String> = query
        .iter()
        .filter(|a| a.as_str() != "--exhaustive")
        .collect();
    if query.is_empty() {
        return Err("missing query".into());
    }
    let semex = load(path)?;
    let query = query
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>()
        .join(" ");
    match mode {
        QueryMode::Search => {
            let hits = if exhaustive {
                semex.search_exhaustive(&query, 10)
            } else {
                semex.search(&query, 10)
            };
            if hits.is_empty() {
                println!("no results");
            }
            for hit in hits {
                println!("{:>7.2}  [{}] {}", hit.score, hit.class, hit.label);
            }
        }
        QueryMode::Show => {
            let hit = top_hit(&semex, &query).ok_or("no results")?;
            print!("{}", semex.view(hit.object));
        }
        QueryMode::Explain => {
            let hit = top_hit(&semex, &query).ok_or("no results")?;
            println!("facts about [{}] {}:", hit.class, hit.label);
            for (source, fact) in semex.explain(hit.object) {
                println!("  [{source}] {fact}");
            }
        }
        QueryMode::CoAuthors => {
            let hit = top_hit(&semex, &format!("class:Person {query}")).ok_or("no such person")?;
            println!("co-authors of {}:", hit.label);
            let coauthors = semex::query::summary::derived(semex.store(), hit.object, "CoAuthor")
                .expect("builtin derived association");
            if coauthors.is_empty() {
                println!("  (none)");
            }
            for c in coauthors {
                println!("  {}", semex.store().label(c));
            }
        }
    }
    Ok(())
}

fn cmd_pattern_query(args: &[String]) -> Result<(), String> {
    let [path, rest @ ..] = args else {
        return Err("missing snapshot path".into());
    };
    // `--path` switches from triple patterns to the association-path
    // engine; `--page` / `--cursor` / `--threads` only apply there.
    let mut path_text: Option<String> = None;
    let mut page = 50usize;
    let mut cursor: Option<String> = None;
    let mut threads = 1usize;
    let mut pattern_parts: Vec<&str> = Vec::new();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut flag_value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--path" => path_text = Some(flag_value("--path")?),
            "--cursor" => cursor = Some(flag_value("--cursor")?),
            "--page" => {
                page = flag_value("--page")?
                    .parse()
                    .map_err(|e| format!("--page needs a number: {e}"))?
            }
            "--threads" => {
                threads = flag_value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads needs a number: {e}"))?
            }
            _ => pattern_parts.push(a),
        }
    }
    let semex = load(path)?;
    if let Some(text) = path_text {
        return run_path_query(&semex, &text, page, cursor.as_deref(), threads);
    }
    if pattern_parts.is_empty() {
        return Err("missing query text".into());
    }
    let text = pattern_parts.join(" ");
    let solutions =
        semex::query::join::query_str(semex.store(), &text).map_err(|e| e.to_string())?;
    println!("{} solution(s)", solutions.len());
    for b in solutions.iter().take(50) {
        let mut items: Vec<(&String, _)> = b.iter().collect();
        items.sort();
        let rendered: Vec<String> = items
            .into_iter()
            .map(|(k, v)| format!("?{k} = {}", semex.store().label(*v)))
            .collect();
        println!("  {}", rendered.join("   "));
    }
    Ok(())
}

/// Run one page of an association-path query against a local space. Local
/// one-shot runs have no published epoch, so cursors are minted at (and
/// checked against) epoch 0: resuming works as long as the snapshot file
/// is unchanged, which is exactly when the page sequence is still valid.
fn run_path_query(
    semex: &Semex,
    text: &str,
    page: usize,
    cursor: Option<&str>,
    threads: usize,
) -> Result<(), String> {
    let store = semex.store();
    let plan = semex::query::parse::parse(store, text)
        .map_err(|e| e.to_string())?
        .optimize();
    let after = cursor
        .map(semex::query::Cursor::decode)
        .transpose()
        .map_err(|e| e.to_string())?;
    let cfg = semex::query::ExecConfig {
        threads: threads.max(1),
        ..semex::query::ExecConfig::default()
    };
    let out = semex::query::exec::run_page(store, &plan, &cfg, 0, page, after.as_ref())
        .map_err(|e| e.to_string())?;
    println!("{} result(s)", out.total);
    for obj in &out.items {
        let class = store.model().class_def(store.class_of(*obj)).name.clone();
        println!("  [{class}] {}  #{obj}", store.label(*obj));
    }
    if let Some(next) = out.next {
        println!("next page: --cursor {}", next.encode());
    }
    Ok(())
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("top requires a snapshot path".into());
    };
    let semex = load(path)?;
    let c_person = semex
        .store()
        .model()
        .class("Person")
        .ok_or("no Person class")?;
    println!("most important people (association-weighted):");
    for (obj, score) in semex::query::analyze::importance(semex.store(), c_person, 3, 10) {
        println!("  {score:>8.5}  {}", semex.store().label(obj));
    }
    Ok(())
}

/// Interactive session over a snapshot: the closest CLI equivalent of the
/// demo's browser window.
fn cmd_repl(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("repl requires a snapshot path".into());
    };
    let semex = load(path)?;
    println!(
        "semex repl — {} objects. Commands: s <query> | show <query> | b <query> | q <patterns> | help | quit",
        semex.store().object_count()
    );
    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        use std::io::{BufRead, Write};
        print!("semex> ");
        std::io::stdout().flush().ok();
        line.clear();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let input = line.trim();
        let (cmd, rest) = input.split_once(' ').unwrap_or((input, ""));
        match cmd {
            "" => {}
            "quit" | "exit" => break,
            "help" => println!(
                "  s <query>      keyword search (class:Name filter supported)\n                   show <query>   full view of the top hit\n                   b <query>      neighbourhood of the top hit\n                   q <patterns>   triple-pattern query (?x Assoc ?y . ...)\n                   quit"
            ),
            "s" => {
                for hit in semex.search(rest, 10) {
                    println!("  {:>7.2}  [{}] {}", hit.score, hit.class, hit.label);
                }
            }
            "show" => match top_hit(&semex, rest) {
                Some(hit) => print!("{}", semex.view(hit.object)),
                None => println!("  no results"),
            },
            "b" => match top_hit(&semex, rest) {
                Some(hit) => {
                    println!("  [{}] {}", hit.class, hit.label);
                    for (label, count) in
                        semex::query::summary::neighborhood_summary(semex.store(), hit.object)
                    {
                        println!("    {label}: {count}");
                    }
                }
                None => println!("  no results"),
            },
            "q" => match semex::query::join::query_str(semex.store(), rest) {
                Ok(solutions) => {
                    println!("  {} solution(s)", solutions.len());
                    for b in solutions.iter().take(20) {
                        let mut items: Vec<(&String, _)> = b.iter().collect();
                        items.sort();
                        let rendered: Vec<String> = items
                            .into_iter()
                            .map(|(k, v)| format!("?{k}={}", semex.store().label(*v)))
                            .collect();
                        println!("    {}", rendered.join("  "));
                    }
                }
                Err(e) => println!("  error: {e}"),
            },
            other => println!("  unknown command {other:?} (try: help)"),
        }
    }
    Ok(())
}

fn cmd_timeline(args: &[String]) -> Result<(), String> {
    let [path, rest @ ..] = args else {
        return Err("missing snapshot path".into());
    };
    if rest.is_empty() {
        return Err("timeline requires a person query".into());
    }
    let semex = load(path)?;
    let hit =
        top_hit(&semex, &format!("class:Person {}", rest.join(" "))).ok_or("no such person")?;
    println!("activity of {}:", hit.label);
    let tl = semex::query::analyze::timeline(semex.store(), hit.object);
    if tl.is_empty() {
        println!("  (no dated activity)");
    }
    for ((year, month), count) in tl {
        println!("  {year}-{month:02}  {}", "#".repeat(count.min(60)));
    }
    Ok(())
}

fn cmd_communities(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("communities requires a snapshot path".into());
    };
    let semex = load(path)?;
    let def = semex
        .store()
        .model()
        .derived("CoAuthor")
        .ok_or("no CoAuthor rule")?
        .clone();
    let groups = semex::query::analyze::communities(semex.store(), &def);
    println!("{} CoAuthor communities:", groups.len());
    for (i, g) in groups.iter().take(12).enumerate() {
        let names: Vec<String> = g.iter().take(5).map(|&o| semex.store().label(o)).collect();
        println!(
            "  {}: {} people — {}{}",
            i + 1,
            g.len(),
            names.join(", "),
            if g.len() > 5 { ", …" } else { "" }
        );
    }
    Ok(())
}

/// Serve one space — or, with `--tenants`, a whole registry of them —
/// over TCP until a client sends `shutdown` (or the process is killed).
/// A journal directory serves durably — every acked write is committed;
/// a plain snapshot serves ephemerally. Tenant spaces are always durable:
/// each is a journal directory under the registry root, activated on
/// demand and evicted LRU under `--budget-mb`.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    use semex::serve::{serve, serve_tenants, PoolConfig, ServeConfig, TenantRegistry};
    let mut config = ServeConfig::default();
    let mut pool = PoolConfig::default();
    let mut addr = "127.0.0.1:7019".to_string();
    let mut tenants: Option<String> = None;
    let mut path: Option<&String> = None;
    let mut listen_replication: Option<String> = None;
    let mut replicate_from: Option<String> = None;
    let mut max_lag: u64 = 1024;
    let mut follower_name: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?.clone(),
            "--listen-replication" => {
                listen_replication = Some(
                    it.next()
                        .ok_or("--listen-replication needs HOST:PORT")?
                        .clone(),
                );
            }
            "--replicate-from" => {
                replicate_from = Some(
                    it.next()
                        .ok_or("--replicate-from needs the primary's replication HOST:PORT")?
                        .clone(),
                );
            }
            "--max-lag" => {
                max_lag = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--max-lag needs a number of events")?;
            }
            "--follower-name" => {
                follower_name = Some(it.next().ok_or("--follower-name needs a name")?.clone());
            }
            "--threads" => {
                config.threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or("--threads needs a positive number")?;
            }
            "--writers" => {
                config.writer_threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                    .ok_or("--writers needs a positive number")?;
            }
            "--tenants" => {
                tenants = Some(
                    it.next()
                        .ok_or("--tenants needs a registry directory")?
                        .clone(),
                );
            }
            "--budget-mb" => {
                pool.memory_budget = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .map(|n| n << 20)
                    .ok_or("--budget-mb needs a positive number of MiB")?;
            }
            "--cache-mb" => {
                pool.cache_budget = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .map(|n| n << 20)
                    .ok_or("--cache-mb needs a number of MiB (0 disables)")?;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown serve flag {other:?}"));
            }
            _ if path.is_none() => path = Some(a),
            other => return Err(format!("unexpected serve argument {other:?}")),
        }
    }

    if (listen_replication.is_some() || replicate_from.is_some()) && tenants.is_some() {
        return Err("replication serves a single space, not --tenants".into());
    }
    if listen_replication.is_some() && replicate_from.is_some() {
        return Err("a server is a replication primary or a follower, not both".into());
    }

    // Follower mode: bootstrap from the primary (snapshot + journal tail),
    // serve snapshot-isolated reads under the lag bound, refuse writes with
    // `not_primary` until a `promote`.
    if let Some(primary) = replicate_from {
        use std::net::ToSocketAddrs;
        let Some(path) = path else {
            return Err("--replicate-from requires a journal directory to follow into".into());
        };
        let p = Path::new(path);
        if p.is_file() {
            return Err(format!(
                "--replicate-from needs a journal directory, not a snapshot file: {path}"
            ));
        }
        let primary_addr = primary
            .to_socket_addrs()
            .map_err(|e| format!("bad primary address {primary:?}: {e}"))?
            .next()
            .ok_or_else(|| format!("primary address {primary:?} resolves to nothing"))?;
        let name = follower_name.unwrap_or_else(|| format!("follower-{}", std::process::id()));
        let follower = semex::replica::follow(
            primary_addr,
            p,
            addr.as_str(),
            config,
            pool,
            max_lag,
            name.clone(),
        )?;
        let mut handle = follower.serve;
        println!(
            "following {primary_addr} as {name:?} (max lag {max_lag}) on {} — \
             reads only; promote with: semex promote {}",
            handle.addr(),
            handle.addr()
        );
        handle.wait();
        let report = handle.join();
        println!(
            "served {} request(s); final epoch {}",
            report.requests, report.writer.final_epoch
        );
        return Ok(());
    }

    let multi = tenants.is_some();
    let report = if let Some(root) = tenants {
        if path.is_some() {
            return Err("serve takes either a space path or --tenants, not both".into());
        }
        let registry =
            TenantRegistry::open(&root).map_err(|e| format!("cannot open registry {root}: {e}"))?;
        let known = registry
            .list()
            .map_err(|e| format!("cannot list registry {root}: {e}"))?;
        let mut handle =
            serve_tenants(registry, addr.as_str(), config, pool).map_err(|e| e.to_string())?;
        println!(
            "serving tenant spaces from {root} ({} known, created on demand) on {} — \
             stop with: semex client {} shutdown",
            known.len(),
            handle.addr(),
            handle.addr()
        );
        handle.wait();
        handle.join()
    } else {
        let Some(path) = path else {
            return Err("serve requires a snapshot path, journal directory, or --tenants".into());
        };
        let p = Path::new(path);
        let master = load(path)?;
        let durable = master.journal().is_some();
        // A replicating primary: the hub ships the journal straight from
        // disk and gates every client ack on the connected follower set,
        // so it must be wired into the config before the writers start.
        let hub = if let Some(listen) = &listen_replication {
            if !durable {
                return Err(
                    "--listen-replication requires a journal directory (the journal \
                     is the replication log)"
                        .into(),
                );
            }
            let hub = semex::replica::replicate(
                p,
                master.store().event_head(),
                listen.as_str(),
                &mut config,
                semex::replica::HubConfig::default(),
            )
            .map_err(|e| format!("cannot start replication hub: {e}"))?;
            println!(
                "shipping the journal to followers on {} — client acks wait for \
                 the connected follower set",
                hub.addr()
            );
            Some(hub)
        } else {
            None
        };
        let objects = master.store().object_count();
        let mut handle = serve(master, addr.as_str(), config, pool).map_err(|e| e.to_string())?;
        println!(
            "serving {objects} objects on {} ({}) — stop with: semex client {} shutdown",
            handle.addr(),
            if durable { "durable" } else { "ephemeral" },
            handle.addr()
        );
        handle.wait();
        let report = handle.join();
        if let Some(hub) = hub {
            hub.shutdown();
        }
        report
    };
    println!(
        "served {} request(s); writes: {} ok / {} failed / {} rejected in {} batch(es); \
         shed: {} connection(s), {} write(s); final epoch {}",
        report.requests,
        report.writer.writes_ok,
        report.writer.writes_failed,
        report.writer.writes_rejected,
        report.writer.batches,
        report.shed_connections,
        report.shed_writes,
        report.writer.final_epoch
    );
    if multi {
        println!(
            "tenants: {} activation(s), {} cold open(s), {} eviction(s); \
             peak {} resident ({} KiB)",
            report.tenants.activations,
            report.tenants.cold_opens,
            report.tenants.evictions,
            report.tenants.max_resident_tenants,
            report.tenants.max_resident_bytes >> 10
        );
    }
    if let Some(cache) = &report.cache {
        println!(
            "read cache: {} hit(s) / {} miss(es), {} coalesced, {} eviction(s), \
             {} KiB resident",
            cache.hits,
            cache.misses,
            cache.coalesced,
            cache.evictions,
            cache.resident_bytes >> 10
        );
    }
    Ok(())
}

/// Promote a follower to primary after primary loss: the server runs its
/// wait-for-durable-prefix handshake (stop pulling, finish applying the
/// in-flight batch) and starts accepting writes. Idempotent — promoting a
/// server that is already primary answers its current epoch.
fn cmd_promote(args: &[String]) -> Result<(), String> {
    use semex::serve::protocol::{Request, Response};
    use semex::serve::Client;
    let [addr] = args else {
        return Err("promote requires: <addr>".into());
    };
    let addr = addr
        .parse()
        .map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    match client
        .request(&Request::Promote)
        .map_err(|e| format!("promote failed: {e}"))?
    {
        Response::Promoted { epoch } => {
            println!(
                "promoted: {addr} is primary at epoch {epoch} — every acknowledged \
                 write at or below it survived"
            );
            Ok(())
        }
        other => {
            print_response(&other);
            Err("server did not confirm the promotion".into())
        }
    }
}

/// One-shot client: send a single request to a running server and render
/// the response.
fn cmd_client(args: &[String]) -> Result<(), String> {
    use semex::serve::protocol::{IngestFormat, Request};
    use semex::serve::{Client, RetryPolicy};
    let [addr, rest @ ..] = args else {
        return Err("client requires: <addr> [--tenant NAME] [--retries N] <request...>".into());
    };
    let mut tenant: Option<String> = None;
    let mut retries: Option<u32> = None;
    let mut rest = rest;
    loop {
        match rest {
            [flag, value, more @ ..] if flag == "--tenant" => {
                tenant = Some(value.clone());
                rest = more;
            }
            [flag, value, more @ ..] if flag == "--retries" => {
                retries = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--retries needs a number: {e}"))?,
                );
                rest = more;
            }
            _ => break,
        }
    }
    let [cmd, rest @ ..] = rest else {
        return Err("client requires: <addr> [--tenant NAME] [--retries N] <request...>".into());
    };
    let request = match cmd.as_str() {
        "search" => {
            let exhaustive = rest.iter().any(|a| a.as_str() == "--exhaustive");
            let query: Vec<&str> = rest
                .iter()
                .map(String::as_str)
                .filter(|a| *a != "--exhaustive")
                .collect();
            if query.is_empty() {
                return Err("search requires a query".into());
            }
            Request::Search {
                query: query.join(" "),
                k: 10,
                exhaustive,
            }
        }
        "query" => Request::Query {
            pattern: rest.join(" "),
        },
        "pathq" => {
            let mut page = 50usize;
            let mut cursor: Option<String> = None;
            let mut parts: Vec<&str> = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--page" => {
                        page = it
                            .next()
                            .ok_or("--page needs a value")?
                            .parse()
                            .map_err(|e| format!("--page needs a number: {e}"))?
                    }
                    "--cursor" => cursor = Some(it.next().ok_or("--cursor needs a value")?.clone()),
                    _ => parts.push(a),
                }
            }
            if parts.is_empty() {
                return Err("pathq requires a path query".into());
            }
            Request::PathQuery {
                path: parts.join(" "),
                page,
                cursor,
            }
        }
        "show" => Request::View {
            query: rest.join(" "),
        },
        "browse" => Request::Browse {
            query: rest.join(" "),
        },
        "stats" => Request::Stats,
        "promote" => Request::Promote,
        "shutdown" => Request::Shutdown,
        "ingest" => {
            let [format, name, file] = rest else {
                return Err("ingest requires: <mbox|vcard|bibtex|latex|ical> <name> <file>".into());
            };
            Request::Ingest {
                format: IngestFormat::from_name(format)
                    .ok_or_else(|| format!("unknown ingest format {format:?}"))?,
                name: name.clone(),
                content: std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read {file}: {e}"))?,
            }
        }
        "integrate" => {
            let [name, file] = rest else {
                return Err("integrate requires: <name> <file.csv>".into());
            };
            Request::IntegrateCsv {
                name: name.clone(),
                csv: std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read {file}: {e}"))?,
            }
        }
        "same" | "distinct" => {
            let ids: Vec<u64> = rest.iter().filter_map(|s| s.parse().ok()).collect();
            let [a, b] = ids.as_slice() else {
                return Err(format!("{cmd} requires two object ids"));
            };
            if cmd == "same" {
                Request::AssertSame { a: *a, b: *b }
            } else {
                Request::AssertDistinct { a: *a, b: *b }
            }
        }
        other => return Err(format!("unknown client request {other:?}")),
    };
    let addr = addr
        .parse()
        .map_err(|e| format!("bad address {addr:?}: {e}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
    if let Some(tenant) = tenant {
        client = client.with_tenant(tenant);
    }
    let response = match retries {
        // Retrying turns a typed `overloaded` shed into a capped
        // exponential backoff loop instead of a final answer.
        Some(max_retries) => client.request_with_retry(
            &request,
            &RetryPolicy {
                max_retries,
                ..RetryPolicy::default()
            },
        ),
        None => client.request(&request),
    }
    .map_err(|e| format!("request failed: {e}"))?;
    print_response(&response);
    Ok(())
}

fn print_response(response: &semex::serve::protocol::Response) {
    use semex::serve::protocol::Response;
    match response {
        Response::Hits { epoch, hits } => {
            if hits.is_empty() {
                println!("no results (epoch {epoch})");
            }
            for h in hits {
                println!("{:>7.2}  [{}] {}  #{}", h.score, h.class, h.label, h.object);
            }
        }
        Response::Solutions { epoch, total, rows } => {
            println!("{total} solution(s) (epoch {epoch})");
            for row in rows {
                let rendered: Vec<String> =
                    row.iter().map(|(k, v)| format!("?{k} = {v}")).collect();
                println!("  {}", rendered.join("   "));
            }
        }
        Response::PathPage {
            epoch,
            total,
            items,
            cursor,
        } => {
            println!("{total} result(s) (epoch {epoch})");
            for i in items {
                println!("  [{}] {}  #{}", i.class, i.label, i.object);
            }
            if let Some(cursor) = cursor {
                println!("next page: --cursor {cursor}");
            }
        }
        Response::View { text, .. } => print!("{text}"),
        Response::Links {
            label,
            object,
            links,
            ..
        } => {
            println!("{label}  #{object}");
            for (l, c) in links {
                println!("  {l}: {c}");
            }
        }
        Response::Ingested {
            epoch,
            records,
            objects,
            triples,
        } => println!(
            "ingested {records} record(s): {objects} reference(s), {triples} triple(s) — durable at epoch {epoch}"
        ),
        Response::Integrated {
            epoch,
            matched,
            score,
            created,
            merged,
        } => {
            if *matched {
                println!(
                    "integrated (mapping score {score:.2}): {created} created, {merged} merged — durable at epoch {epoch}"
                );
            } else {
                println!("table not integrated: no usable schema mapping");
            }
        }
        Response::Asserted { epoch, merged } => {
            println!("asserted (effective: {merged}) — durable at epoch {epoch}")
        }
        Response::Stats {
            epoch,
            objects,
            aliases,
            edges,
            sources,
            cache,
        } => {
            println!(
                "epoch {epoch}: {objects} object(s), {aliases} alias(es), {edges} edge(s), {sources} source(s)"
            );
            if let Some(cache) = cache {
                println!(
                    "cache: {} hit(s), {} miss(es), {} coalesced, {} eviction(s), {} resident byte(s)",
                    cache.hits, cache.misses, cache.coalesced, cache.evictions, cache.resident_bytes
                );
            }
        }
        Response::Promoted { epoch } => {
            println!("promoted: server is primary at epoch {epoch}")
        }
        Response::Replicated { epoch } => {
            println!("replicated batch folded; durable head {epoch}")
        }
        Response::ShutdownAck { epoch } => println!("server shutting down at epoch {epoch}"),
        Response::Overloaded { queue } => {
            println!("server overloaded ({queue} queue full); retry later")
        }
        Response::Error { kind, message } => println!("error ({kind:?}): {message}"),
    }
}

fn cmd_path(args: &[String]) -> Result<(), String> {
    let [path, rest @ ..] = args else {
        return Err("missing snapshot path".into());
    };
    let sep = rest
        .iter()
        .position(|a| a == "--")
        .ok_or("path requires: <from name> -- <to name>")?;
    let (from_q, to_q) = (rest[..sep].join(" "), rest[sep + 1..].join(" "));
    if from_q.is_empty() || to_q.is_empty() {
        return Err("path requires: <from name> -- <to name>".into());
    }
    let semex = load(path)?;
    let from = top_hit(&semex, &format!("class:Person {from_q}")).ok_or("from-person not found")?;
    let to = top_hit(&semex, &format!("class:Person {to_q}")).ok_or("to-person not found")?;
    match semex::query::summary::shortest_path(semex.store(), from.object, to.object, 6) {
        None => println!("no connection within 6 hops"),
        Some(steps) => {
            for (obj, via) in steps {
                match via {
                    None => println!("{}", semex.store().label(obj)),
                    Some(label) => println!("  --{label}--> {}", semex.store().label(obj)),
                }
            }
        }
    }
    Ok(())
}
