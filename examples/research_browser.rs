//! Research browser: the SIGMOD'05 demo's browsing scenario on a realistic
//! personal corpus.
//!
//! Generates a synthetic personal information space (mail archive,
//! bibliography, contacts, drafts, notes — with the full name-variant noise
//! model), writes it to a temporary directory, builds SEMEX over the
//! *directory tree* exactly like a desktop deployment would, and then walks
//! the demo script: search for a person, inspect them, browse co-authors
//! and correspondents, and answer "how am I connected to X?" with an
//! association path.
//!
//! Run with `cargo run --release --example research_browser`.

use semex::corpus::{generate_personal, CorpusConfig};
use semex::query::summary::{derived, shortest_path};
use semex::SemexBuilder;

fn main() {
    // A mid-sized personal information space.
    let cfg = CorpusConfig {
        seed: 2005,
        people: 80,
        organizations: 8,
        venues: 10,
        publications: 150,
        messages: 600,
        ..CorpusConfig::default()
    };
    let corpus = generate_personal(&cfg);
    let dir = std::env::temp_dir().join(format!("semex-research-{}", std::process::id()));
    corpus.write_to(&dir).expect("write corpus");
    println!(
        "personal corpus: {} files, {:.1} KiB at {}",
        corpus.files.len(),
        corpus.byte_size() as f64 / 1024.0,
        dir.display()
    );

    let semex = SemexBuilder::new()
        .add_directory("home", &dir)
        .build()
        .expect("pipeline");
    let recon = semex.report().recon.as_ref().unwrap();
    println!(
        "extracted {} references; reconciliation merged {} in {:?}\n",
        recon.refs, recon.merges, recon.elapsed
    );

    // Pick the most prolific author as the protagonist.
    let store = semex.store();
    let c_person = store.model().class("Person").unwrap();
    let protagonist = store
        .objects_of_class(c_person)
        .max_by_key(|&p| derived(store, p, "CoAuthor").unwrap().len())
        .expect("people exist");
    println!("== protagonist: {} ==", store.label(protagonist));
    println!("{}", semex.view(protagonist));

    println!("== co-authors ==");
    for co in derived(store, protagonist, "CoAuthor").unwrap() {
        println!("  {}", store.label(co));
    }

    let correspondents = derived(store, protagonist, "CorrespondedWith").unwrap();
    println!("== correspondents ({}) ==", correspondents.len());
    for c in correspondents.iter().take(8) {
        println!("  {}", store.label(*c));
    }

    // "How am I connected to this person?" — association path to someone
    // the protagonist never e-mailed or co-authored with.
    let stranger = store
        .objects_of_class(c_person)
        .find(|&p| {
            p != protagonist
                && !correspondents.contains(&p)
                && shortest_path(store, protagonist, p, 4).is_some()
        })
        .or_else(|| store.objects_of_class(c_person).find(|&p| p != protagonist));
    if let Some(stranger) = stranger {
        println!("\n== connection to {} ==", store.label(stranger));
        match shortest_path(store, protagonist, stranger, 6) {
            Some(path) => {
                for (obj, via) in path {
                    match via {
                        None => println!("  {}", store.label(obj)),
                        Some(label) => println!("    --{label}--> {}", store.label(obj)),
                    }
                }
            }
            None => println!("  (not connected within 6 hops)"),
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}
