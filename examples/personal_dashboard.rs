//! Personal dashboard: analysis over the association database.
//!
//! The platform paper's closing argument is that once personal information
//! is a *database*, it supports analysis, not just retrieval. This example
//! builds SEMEX over a generated personal space and renders a dashboard:
//!
//! * the most important people in the user's life (association-weighted
//!   importance with neighbour propagation),
//! * the user's research communities (connected components of `CoAuthor`),
//! * an activity timeline for the busiest person,
//! * the calendar view: upcoming events with reconciled attendees.
//!
//! Run with `cargo run --release --example personal_dashboard`.

use semex::corpus::{generate_personal, CorpusConfig};
use semex::query::analyze::{communities, importance, timeline};
use semex::SemexBuilder;

fn main() {
    let cfg = CorpusConfig {
        seed: 1234,
        people: 70,
        organizations: 7,
        venues: 9,
        publications: 140,
        messages: 700,
        ..CorpusConfig::default()
    };
    let corpus = generate_personal(&cfg);
    let dir = std::env::temp_dir().join(format!("semex-dash-{}", std::process::id()));
    corpus.write_to(&dir).expect("write corpus");
    let semex = SemexBuilder::new()
        .add_directory("home", &dir)
        .build()
        .expect("pipeline");
    std::fs::remove_dir_all(&dir).ok();

    let store = semex.store();
    let model = store.model();
    let c_person = model.class("Person").unwrap();
    let c_event = model.class("Event").unwrap();

    println!("== who matters most ==");
    let ranked = importance(store, c_person, 3, 8);
    for (p, score) in &ranked {
        println!("  {score:>8.5}  {}", store.label(*p));
    }

    println!("\n== research communities (CoAuthor components) ==");
    let coauthor = model.derived("CoAuthor").unwrap().clone();
    for (i, group) in communities(store, &coauthor).iter().take(4).enumerate() {
        let names: Vec<String> = group.iter().take(6).map(|&o| store.label(o)).collect();
        println!(
            "  group {}: {} people — {}{}",
            i + 1,
            group.len(),
            names.join(", "),
            if group.len() > 6 { ", …" } else { "" }
        );
    }

    if let Some((busiest, _)) = ranked.first() {
        println!("\n== activity timeline: {} ==", store.label(*busiest));
        for ((year, month), count) in timeline(store, *busiest) {
            println!("  {year}-{month:02}  {}", "#".repeat(count.min(60)));
        }
    }

    println!("\n== calendar: events with reconciled attendees ==");
    let attendee = model.assoc("Attendee").unwrap();
    let a_date = model.attr("date").unwrap();
    let mut events: Vec<_> = store.objects_of_class(c_event).collect();
    events.sort_by_key(|&e| {
        store
            .object(e)
            .values(a_date)
            .find_map(|v| v.as_date())
            .unwrap_or(0)
    });
    for &e in events.iter().take(6) {
        let attendees: Vec<String> = store
            .neighbors(e, attendee)
            .iter()
            .map(|&p| store.label(p))
            .collect();
        println!("  \"{}\" — {}", store.label(e), attendees.join(", "));
    }
}
