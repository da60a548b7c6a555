//! Incremental reconciliation equivalence at the platform surface: a
//! `Semex` keeps its reconciliation state current from the store's event
//! stream (with index batching on and off), and every write must leave the
//! same clustering as a twin store driven through the stateless calls —
//! `reconcile_incremental` and `semex_integrate::import`, which build a
//! fresh state per run. The recon crate's own suite checks fresh and
//! persistent states against the rebuild-and-filter oracle.

use semex::core::SourceSpec;
use semex::corpus::{generate_personal, CorpusConfig};
use semex::extract::csv::parse_csv;
use semex::extract::{
    bibtex::extract_bibtex, email::extract_mbox, vcard::extract_vcards, ExtractContext,
};
use semex::integrate::{import, SchemaMatcher};
use semex::recon::{reconcile_incremental, ReconConfig, Variant};
use semex::store::{ObjectId, SourceInfo, SourceKind, Store};
use semex::{Semex, SemexBuilder, SemexConfig};

/// xorshift64*: deterministic op sequences.
struct Rng(u64);
impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) as usize % n.max(1)
    }
}

/// Split a source into records: lines starting with `marker` open one.
fn records(text: &str, marker: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with(marker) || out.is_empty() {
            out.push(String::new());
        }
        let cur = out.last_mut().expect("opened above");
        cur.push_str(line);
        cur.push('\n');
    }
    out
}

#[derive(Clone, Copy)]
enum Format {
    Mbox,
    Vcard,
    Bibtex,
}

/// A platform built from part of a generated desktop, the held-out
/// records, and CSV rows naming its people.
fn desk(seed: u64, config: SemexConfig) -> (Semex, Vec<(Format, String)>, Vec<String>) {
    let corpus = generate_personal(&CorpusConfig::tiny(seed));
    let file = |suffix: &str| -> String {
        corpus
            .files
            .iter()
            .filter(|(p, _)| p.ends_with(suffix))
            .map(|(_, c)| c.as_str())
            .collect()
    };
    let mut held = Vec::new();
    let mut builder = SemexBuilder::new().with_config(config);
    for (format, suffix, marker) in [
        (Format::Bibtex, ".bib", "@"),
        (Format::Mbox, ".mbox", "From "),
        (Format::Vcard, ".vcf", "BEGIN:VCARD"),
    ] {
        let mut kept = String::new();
        for (i, r) in records(&file(suffix), marker).into_iter().enumerate() {
            if i % 3 == 1 {
                held.push((format, r));
            } else {
                kept.push_str(&r);
            }
        }
        builder = match format {
            Format::Bibtex => builder.add_bibtex("base.bib", kept),
            Format::Mbox => builder.add_mbox("base.mbox", kept),
            Format::Vcard => builder.add_vcards("base.vcf", kept),
        };
    }
    let rows = corpus
        .world
        .people
        .iter()
        .map(|p| format!("{},{}", p.canonical_name(), p.emails[0]))
        .collect();
    (builder.build().expect("the desk builds"), held, rows)
}

/// Every slot's live object: equal partitions give equal vectors.
fn partition(store: &Store) -> Vec<ObjectId> {
    (0..store.slot_count() as u64)
        .map(|s| store.resolve(ObjectId(s)))
        .collect()
}

/// Runs one write sequence; returns the merges the platform made.
fn run(seed: u64, variant: Variant, threads: usize, batching: bool) -> usize {
    let config = SemexConfig {
        recon_variant: variant,
        recon: ReconConfig {
            threads,
            ..ReconConfig::default()
        },
        ..SemexConfig::default()
    };
    let (mut semex, mut held, rows) = desk(seed, config.clone());
    let mut twin = semex.store().clone();
    let mut twin_cfg = config.recon.clone();
    semex.set_index_batching(batching);
    let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ threads as u64);
    let person = twin.model().class("Person").unwrap();
    let aliases = twin.alias_count();
    for step in 0..16 {
        let what = rng.below(10);
        match what {
            0..=5 if !held.is_empty() => {
                let (format, content) = held.remove(rng.below(held.len()));
                let name = format!("held{step}");
                let (spec, kind) = match format {
                    Format::Mbox => (
                        SourceSpec::Mbox {
                            name: name.clone(),
                            content: content.clone(),
                        },
                        SourceKind::Email,
                    ),
                    Format::Vcard => (
                        SourceSpec::Vcard {
                            name: name.clone(),
                            content: content.clone(),
                        },
                        SourceKind::Contacts,
                    ),
                    Format::Bibtex => (
                        SourceSpec::Bibtex {
                            name: name.clone(),
                            content: content.clone(),
                        },
                        SourceKind::Bibliography,
                    ),
                };
                semex.ingest(spec).expect("held-out records extract");
                let src = twin.register_source(SourceInfo::new(&name, kind));
                let first_new = twin.slot_count() as u64;
                let mut ctx = ExtractContext::new(&mut twin, src);
                match format {
                    Format::Mbox => extract_mbox(&content, &mut ctx).map(|_| ()),
                    Format::Vcard => extract_vcards(&content, &mut ctx).map(|_| ()),
                    Format::Bibtex => extract_bibtex(&content, &mut ctx).map(|_| ()),
                }
                .unwrap();
                let new: Vec<ObjectId> = (first_new..twin.slot_count() as u64)
                    .map(ObjectId)
                    .collect();
                reconcile_incremental(&mut twin, &new, variant, &twin_cfg);
            }
            0..=6 => {
                let mut csv = String::from("full name,e-mail\n");
                for _ in 0..1 + rng.below(3) {
                    csv.push_str(&rows[rng.below(rows.len())]);
                    csv.push('\n');
                }
                let name = format!("table{step}");
                let got = semex.integrate(&name, &csv).expect("integration runs");
                let table = parse_csv(&csv).unwrap();
                let want = SchemaMatcher::new(&twin)
                    .match_table(&table)
                    .map(|mapping| import(&mut twin, &name, &table, &mapping, &twin_cfg).unwrap());
                assert_eq!(got.map(|(_, r)| r), want, "seed {seed} step {step}");
            }
            k => {
                let people: Vec<ObjectId> = twin.objects_of_class(person).collect();
                let (a, b) = (
                    people[rng.below(people.len())],
                    people[rng.below(people.len())],
                );
                if k <= 8 {
                    semex.assert_same(a, b).unwrap();
                    twin_cfg.must_link.push((a, b));
                    if twin.resolve(a) != twin.resolve(b) {
                        twin.merge(a, b).unwrap();
                    }
                } else if semex.assert_distinct(a, b).unwrap() {
                    twin_cfg.cannot_link.push((a, b));
                }
            }
        }
        if batching && rng.below(3) == 0 {
            semex.flush_index(); // a commit boundary of the batched path
        }
        assert_eq!(
            partition(semex.store()),
            partition(&twin),
            "seed {seed} {variant} threads {threads} batching {batching} step {step}"
        );
    }
    semex.store().alias_count() - aliases
}

#[test]
fn persistent_state_matches_fresh_state_runs() {
    let mut merges = 0;
    for seed in [81u64, 82] {
        for variant in Variant::ALL {
            for threads in [1, 2] {
                for batching in [false, true] {
                    merges += run(seed, variant, threads, batching);
                }
            }
        }
    }
    // The sequences must merge, not just agree on doing nothing.
    assert!(merges >= 200, "only {merges} merges");
}
