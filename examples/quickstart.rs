//! Quickstart: build a SEMEX platform from a handful of inline sources,
//! watch reference reconciliation consolidate duplicate references, and run
//! the three core interactions: keyword search, object inspection, and
//! association browsing.
//!
//! Run with `cargo run --example quickstart`.

use semex::query::summary::derived;
use semex::SemexBuilder;

const BIBLIOGRAPHY: &str = r#"
@inproceedings{dhm05,
  title     = {Reference Reconciliation in Complex Information Spaces},
  author    = {Dong, Xin and Halevy, Alon and Madhavan, Jayant},
  booktitle = {ACM SIGMOD Conference},
  year      = 2005,
}
@inproceedings{dh05,
  title     = {A Platform for Personal Information Management and Integration},
  author    = {Xin Dong and Alon Halevy},
  booktitle = {CIDR},
  year      = 2005,
}
"#;

const INBOX: &str = "\
From quickstart 0
From: Xin Dong <luna@cs.example.edu>
To: \"Halevy, Alon\" <alon@cs.example.edu>
Subject: SIGMOD demo script
Date: 2005-03-15 09:30:00
Message-ID: <m1@example>
X-Attachment: demo-script.tex

Draft of the demo walkthrough attached. Can you check scenario 2?

From quickstart 1
From: alon@cs.example.edu
To: Xin Dong <luna@cs.example.edu>
Subject: Re: SIGMOD demo script
Date: 2005-03-15 11:02:00
Message-ID: <m2@example>
In-Reply-To: <m1@example>

Looks great. One suggestion on the reconciliation slide.
";

const CONTACTS: &str = "\
BEGIN:VCARD
VERSION:3.0
FN:Xin Luna Dong
N:Dong;Xin;
EMAIL;TYPE=work:luna@cs.example.edu
ORG:University of Washington
END:VCARD
BEGIN:VCARD
VERSION:3.0
FN:Alon Halevy
EMAIL:alon@cs.example.edu
ORG:University of Washington
END:VCARD
";

fn main() {
    // 1. Build: extract -> reconcile -> index.
    let semex = SemexBuilder::new()
        .add_bibtex("library.bib", BIBLIOGRAPHY)
        .add_mbox("inbox.mbox", INBOX)
        .add_vcards("addressbook.vcf", CONTACTS)
        .build()
        .expect("pipeline");

    let report = semex.report();
    println!("== build report ==");
    for (source, stats) in &report.extraction {
        println!(
            "  {source:<16} {:>3} records, {:>3} references, {:>3} links",
            stats.records, stats.objects, stats.triples
        );
    }
    if let Some(recon) = &report.recon {
        println!(
            "  reconciliation: {} references -> {} merges in {:?} ({} candidate pairs)",
            recon.refs, recon.merges, recon.elapsed, recon.candidates
        );
    }
    println!("\n== store ==\n{}", semex.stats().table());

    // 2. Search: object-centric keyword search.
    println!("== search \"reconciliation\" ==");
    for hit in semex.search("reconciliation", 5) {
        println!("  {:>6.2}  [{}] {}", hit.score, hit.class, hit.label);
    }

    // 3. Inspect: the reconciled Xin Dong object pools every surface form
    //    ("Dong, Xin" from BibTeX, "Xin Dong" from mail, "Xin Luna Dong"
    //    from the address book) with provenance.
    let dong = &semex.search("class:Person dong", 1)[0];
    println!("\n== object view ==\n{}", semex.view(dong.object));

    // 4. Browse by association, including derived associations.
    let store = semex.store();
    println!("== CoAuthor(Xin Dong) ==");
    for co in derived(store, dong.object, "CoAuthor").unwrap() {
        println!("  {}", semex.store().label(co));
    }
    println!("== CorrespondedWith(Xin Dong) ==");
    for c in derived(store, dong.object, "CorrespondedWith").unwrap() {
        println!("  {}", semex.store().label(c));
    }
}
