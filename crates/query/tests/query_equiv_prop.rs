//! Equivalence properties for the path engine.
//!
//! Four families over random graphs (with random alias merges) and
//! random plans:
//!
//! 1. The engine equals an independent brute-force reference walk — at
//!    every thread count, and with the planner pass (`optimize`) applied
//!    or not. The reference evaluates the algebra's set semantics
//!    directly with `BTreeSet`s, one object at a time; the engine owes
//!    its answers to batched frontiers, so agreement pins the batching,
//!    dedup, alias resolution, and parallel chunking.
//! 2. Cursor pagination at any page size stitches to exactly the
//!    unpaginated run, and replaying any page at the same epoch is
//!    identical.
//! 3. The pattern join equals the original backtracking join
//!    (`oracle::query`) on random conjunctive queries over the same graphs.
//! 4. The browsing functions equal the original association browser
//!    (`oracle::Browser`): neighbourhoods and their summaries from every
//!    object slot, every derived association of the model, and shortest
//!    connection paths at several depth caps, self-paths included.

mod oracle;

use oracle::Browser;
use proptest::prelude::*;
use semex_model::names::{assoc, attr, class};
use semex_model::{AssocId, ClassId, Value};
use semex_query::exec::{run, run_page};
use semex_query::summary;
use semex_query::{Cursor, Dir, ExecConfig, Filter, PathQuery, Start, Step};
use semex_store::{ObjectId, SourceInfo, SourceKind, Store};
use std::collections::BTreeSet;

// ---------------------------------------------------------------- graphs

/// A compact recipe for a random store: counts plus edge/attr/merge
/// choices drawn as raw indices (taken modulo the object counts when the
/// store is built, since the vendored proptest has no `prop_flat_map` to
/// condition ranges on the drawn counts).
#[derive(Debug, Clone)]
struct GraphSpec {
    persons: usize,
    messages: usize,
    papers: usize,
    /// (message index, person index) sender edges.
    senders: Vec<(usize, usize)>,
    /// (message index, person index) recipient edges.
    recipients: Vec<(usize, usize)>,
    /// (paper index, person index) authorship edges.
    authors: Vec<(usize, usize)>,
    /// (message index, date) attributes.
    dates: Vec<(usize, i64)>,
    /// (person index, person index) alias merges (winner, loser).
    merges: Vec<(usize, usize)>,
}

fn graph_strategy(max_people: usize) -> impl Strategy<Value = GraphSpec> {
    let edge = || prop::collection::vec((0..64usize, 0..64usize), 0..24);
    (
        (2..max_people, 1..12usize, 1..10usize),
        edge(),
        edge(),
        edge(),
        prop::collection::vec((0..64usize, 1_000_000_000i64..1_300_000_000), 0..12),
        prop::collection::vec((0..64usize, 0..64usize), 0..3),
    )
        .prop_map(
            |((persons, messages, papers), senders, recipients, authors, dates, merges)| {
                GraphSpec {
                    persons,
                    messages,
                    papers,
                    senders,
                    recipients,
                    authors,
                    dates,
                    merges,
                }
            },
        )
}

fn build(spec: &GraphSpec) -> Store {
    let mut st = Store::with_builtin_model();
    let src = st.register_source(SourceInfo::new("prop", SourceKind::Synthetic));
    let m = st.model();
    let c_person = m.class(class::PERSON).unwrap();
    let c_message = m.class(class::MESSAGE).unwrap();
    let c_paper = m.class(class::PUBLICATION).unwrap();
    let a_sender = m.assoc(assoc::SENDER).unwrap();
    let a_recipient = m.assoc(assoc::RECIPIENT).unwrap();
    let a_authored = m.assoc(assoc::AUTHORED_BY).unwrap();
    let a_date = m.attr(attr::DATE).unwrap();
    let persons: Vec<ObjectId> = (0..spec.persons).map(|_| st.add_object(c_person)).collect();
    let messages: Vec<ObjectId> = (0..spec.messages)
        .map(|_| st.add_object(c_message))
        .collect();
    let papers: Vec<ObjectId> = (0..spec.papers).map(|_| st.add_object(c_paper)).collect();
    for &(m_i, p_i) in &spec.senders {
        st.add_triple(
            messages[m_i % spec.messages],
            a_sender,
            persons[p_i % spec.persons],
            src,
        )
        .unwrap();
    }
    for &(m_i, p_i) in &spec.recipients {
        st.add_triple(
            messages[m_i % spec.messages],
            a_recipient,
            persons[p_i % spec.persons],
            src,
        )
        .unwrap();
    }
    for &(pa_i, pe_i) in &spec.authors {
        st.add_triple(
            papers[pa_i % spec.papers],
            a_authored,
            persons[pe_i % spec.persons],
            src,
        )
        .unwrap();
    }
    for &(m_i, d) in &spec.dates {
        st.add_attr(messages[m_i % spec.messages], a_date, Value::Date(d))
            .unwrap();
    }
    for &(w, l) in &spec.merges {
        let (w, l) = (persons[w % spec.persons], persons[l % spec.persons]);
        if st.resolve(w) != st.resolve(l) {
            st.merge(w, l).unwrap();
        }
    }
    st
}

// ----------------------------------------------------------------- plans

/// A step recipe; indices are resolved against the store's builtin model
/// at evaluation time.
#[derive(Debug, Clone)]
enum StepSpec {
    Hop {
        assoc: u8,
        inverse: bool,
        fanout: Option<usize>,
    },
    Class(u8),
    DateRange {
        min: Option<i64>,
        max: Option<i64>,
    },
    Union(Vec<StepSpec>, Vec<StepSpec>),
    Optional(Vec<StepSpec>),
    Repeat {
        hop: u8,
        inverse: bool,
        depth: usize,
    },
}

fn hop_spec() -> impl Strategy<Value = StepSpec> {
    (
        0..3u8,
        any::<bool>(),
        prop_oneof![Just(None), (1..4usize).prop_map(Some)],
    )
        .prop_map(|(assoc, inverse, fanout)| StepSpec::Hop {
            assoc,
            inverse,
            fanout,
        })
}

fn step_spec() -> impl Strategy<Value = StepSpec> {
    // The vendored proptest has no weighted `prop_oneof`; bias toward
    // plain hops by listing the hop arm more than once.
    prop_oneof![
        hop_spec(),
        hop_spec(),
        hop_spec(),
        (0..3u8).prop_map(StepSpec::Class),
        (
            prop_oneof![Just(None), (1_000_000_000i64..1_300_000_000).prop_map(Some)],
            prop_oneof![Just(None), (1_000_000_000i64..1_300_000_000).prop_map(Some)],
        )
            .prop_map(|(min, max)| StepSpec::DateRange { min, max }),
        (
            prop::collection::vec(hop_spec(), 1..3),
            prop::collection::vec(hop_spec(), 1..3)
        )
            .prop_map(|(a, b)| StepSpec::Union(a, b)),
        prop::collection::vec(hop_spec(), 1..3).prop_map(StepSpec::Optional),
        (0..3u8, any::<bool>(), 1..5usize).prop_map(|(hop, inverse, depth)| StepSpec::Repeat {
            hop,
            inverse,
            depth
        }),
    ]
}

#[derive(Debug, Clone)]
enum StartSpec {
    All,
    Class(u8),
    Object(usize),
}

fn plan_strategy() -> impl Strategy<Value = (StartSpec, Vec<StepSpec>)> {
    let start = prop_oneof![
        Just(StartSpec::All),
        (0..3u8).prop_map(StartSpec::Class),
        (0..64usize).prop_map(StartSpec::Object),
    ];
    (start, prop::collection::vec(step_spec(), 0..5))
}

fn classes(st: &Store) -> [ClassId; 3] {
    let m = st.model();
    [
        m.class(class::PERSON).unwrap(),
        m.class(class::MESSAGE).unwrap(),
        m.class(class::PUBLICATION).unwrap(),
    ]
}

fn assocs(st: &Store) -> [AssocId; 3] {
    let m = st.model();
    [
        m.assoc(assoc::SENDER).unwrap(),
        m.assoc(assoc::RECIPIENT).unwrap(),
        m.assoc(assoc::AUTHORED_BY).unwrap(),
    ]
}

fn materialize_steps(st: &Store, specs: &[StepSpec]) -> Vec<Step> {
    let a_date = st.model().attr(attr::DATE).unwrap();
    specs
        .iter()
        .map(|s| match s {
            StepSpec::Hop {
                assoc,
                inverse,
                fanout,
            } => Step::Hop {
                dir: if *inverse { Dir::Inverse } else { Dir::Forward },
                assoc: assocs(st)[*assoc as usize % 3],
                fanout: *fanout,
            },
            StepSpec::Class(c) => Step::Class(classes(st)[*c as usize % 3]),
            StepSpec::DateRange { min, max } => Step::Filter(Filter::Range {
                attr: a_date,
                min: *min,
                max: *max,
            }),
            StepSpec::Union(a, b) => {
                Step::Union(vec![materialize_steps(st, a), materialize_steps(st, b)])
            }
            StepSpec::Optional(a) => Step::Optional(materialize_steps(st, a)),
            StepSpec::Repeat {
                hop,
                inverse,
                depth,
            } => Step::Repeat {
                steps: vec![Step::Hop {
                    dir: if *inverse { Dir::Inverse } else { Dir::Forward },
                    assoc: assocs(st)[*hop as usize % 3],
                    fanout: None,
                }],
                max_depth: *depth,
            },
        })
        .collect()
}

fn materialize(st: &Store, start: &StartSpec, steps: &[StepSpec]) -> PathQuery {
    let start = match start {
        StartSpec::All => Start::All,
        StartSpec::Class(c) => Start::Class(classes(st)[*c as usize % 3]),
        StartSpec::Object(i) => {
            let ids: Vec<ObjectId> = st.objects().collect();
            Start::Object(ids[i % ids.len()])
        }
    };
    PathQuery::new(start, materialize_steps(st, steps))
}

// ------------------------------------------------- brute-force reference

/// Independent reference evaluator: plain `BTreeSet` set semantics, one
/// object at a time, no batching and no shared traversal code beyond the
/// store's own adjacency accessors.
fn reference(st: &Store, plan: &PathQuery) -> Vec<ObjectId> {
    let seed: BTreeSet<ObjectId> = match &plan.start {
        Start::All => st.objects().map(|o| st.resolve(o)).collect(),
        Start::Class(c) => st.objects_of_class(*c).map(|o| st.resolve(o)).collect(),
        Start::Labeled(c, l) => st.find_by_label(*c, l).map(|o| st.resolve(o)).collect(),
        Start::Object(o) => match st.object_raw(*o) {
            Some(_) => [st.resolve(*o)].into(),
            None => BTreeSet::new(),
        },
    };
    ref_steps(st, seed, &plan.steps).into_iter().collect()
}

fn ref_hop(
    st: &Store,
    src: ObjectId,
    dir: Dir,
    a: AssocId,
    fanout: Option<usize>,
) -> Vec<ObjectId> {
    let neighbors = match dir {
        Dir::Forward => st.neighbors(src, a),
        Dir::Inverse => st.inverse_neighbors(src, a),
    };
    let take = fanout.unwrap_or(neighbors.len()).min(neighbors.len());
    neighbors[..take].iter().map(|&t| st.resolve(t)).collect()
}

fn ref_steps(st: &Store, mut frontier: BTreeSet<ObjectId>, steps: &[Step]) -> BTreeSet<ObjectId> {
    for step in steps {
        frontier = match step {
            Step::Hop { dir, assoc, fanout } => frontier
                .iter()
                .flat_map(|&s| ref_hop(st, s, *dir, *assoc, *fanout))
                .collect(),
            Step::Class(c) => frontier
                .into_iter()
                .filter(|&o| st.class_of(o) == *c)
                .collect(),
            Step::Filter(Filter::Range { attr, min, max }) => frontier
                .into_iter()
                .filter(|&o| {
                    st.object(o).values(*attr).any(|v| {
                        let n = match v {
                            Value::Int(i) => *i,
                            Value::Date(d) => *d,
                            _ => return false,
                        };
                        min.is_none_or(|m| n >= m) && max.is_none_or(|m| n <= m)
                    })
                })
                .collect(),
            Step::Filter(_) => unreachable!("strategy only emits range filters"),
            Step::Union(branches) => branches
                .iter()
                .flat_map(|b| ref_steps(st, frontier.clone(), b))
                .collect(),
            Step::Optional(branch) => {
                let mut out = ref_steps(st, frontier.clone(), branch);
                out.extend(frontier);
                out
            }
            Step::Repeat { steps, max_depth } => {
                let mut visited = frontier.clone();
                let mut layer = frontier;
                let mut out = BTreeSet::new();
                for _ in 0..*max_depth {
                    let produced = ref_steps(st, layer, steps);
                    let fresh: BTreeSet<ObjectId> =
                        produced.difference(&visited).copied().collect();
                    if fresh.is_empty() {
                        break;
                    }
                    visited.extend(fresh.iter().copied());
                    out.extend(fresh.iter().copied());
                    layer = fresh;
                }
                out
            }
        };
    }
    frontier
}

// ------------------------------------------------------------ properties

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Engine == brute force, at 1/2/4 threads, optimized or not.
    #[test]
    fn engine_matches_brute_force_at_any_thread_count(
        spec in graph_strategy(40),
        (start, steps) in plan_strategy(),
    ) {
        let st = build(&spec);
        let plan = materialize(&st, &start, &steps);
        let want = reference(&st, &plan);
        for threads in [1usize, 2, 4] {
            let cfg = ExecConfig { threads, ..ExecConfig::default() };
            let got = run(&st, &plan, &cfg).unwrap();
            prop_assert_eq!(&got, &want, "threads={}", threads);
            let optimized = run(&st, &plan.clone().optimize(), &cfg).unwrap();
            prop_assert_eq!(&optimized, &want, "optimized, threads={}", threads);
        }
    }

    /// Pages of any size stitch to the unpaginated run; replaying a page
    /// at the same epoch reproduces it exactly.
    #[test]
    fn cursor_pages_stitch_to_unpaginated_run(
        spec in graph_strategy(40),
        (start, steps) in plan_strategy(),
        page_size in 1usize..7,
        epoch in 0u64..1000,
    ) {
        let st = build(&spec);
        let plan = materialize(&st, &start, &steps);
        let cfg = ExecConfig::default();
        let all = run(&st, &plan, &cfg).unwrap();
        let mut stitched = Vec::new();
        let mut cursor: Option<Cursor> = None;
        let mut replay: Option<(Option<Cursor>, Vec<ObjectId>)> = None;
        loop {
            let page = run_page(&st, &plan, &cfg, epoch, page_size, cursor.as_ref()).unwrap();
            prop_assert_eq!(page.total, all.len());
            prop_assert!(page.items.len() <= page_size);
            if replay.is_none() && !page.items.is_empty() {
                replay = Some((cursor, page.items.clone()));
            }
            stitched.extend(page.items);
            match page.next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        prop_assert_eq!(stitched, all);
        if let Some((at, items)) = replay {
            let again = run_page(&st, &plan, &cfg, epoch, page_size, at.as_ref()).unwrap();
            prop_assert_eq!(again.items, items, "same-epoch replay is identical");
        }
    }

    /// The conjunctive join equals the original backtracking join on
    /// random pattern queries — including self-loop variables and
    /// patterns whose variables revisit through inverse hops.
    #[test]
    fn pattern_join_matches_the_original_join(
        spec in graph_strategy(24),
        picks in prop::collection::vec((0..3u8, 0..4u8, 0..4u8), 1..4),
    ) {
        let st = build(&spec);
        let names = ["Sender", "Recipient", "AuthoredBy"];
        let vars = ["x", "y", "z", "x"]; // index 3 aliases 0: forced revisits
        let text = picks
            .iter()
            .map(|&(a, s, o)| {
                format!(
                    "?{} {} ?{}",
                    vars[s as usize],
                    names[a as usize % 3],
                    vars[o as usize]
                )
            })
            .collect::<Vec<_>>()
            .join(" . ");
        let engine = semex_query::join::query_str(&st, &text).unwrap();
        let patterns = semex_query::join::parse_patterns(&st, &text).unwrap();
        prop_assert_eq!(engine, oracle::query(&st, &patterns), "{}", text);
    }

    /// Neighbourhoods, their label summaries and every derived association
    /// of the model equal the original browser's, from every object slot
    /// (merged-away aliases included).
    #[test]
    fn browsing_matches_the_original_browser(spec in graph_strategy(24)) {
        let st = build(&spec);
        let browser = Browser::new(&st);
        for obj in (0..st.slot_count() as u64).map(ObjectId) {
            prop_assert_eq!(summary::neighborhood(&st, obj), browser.neighborhood(obj));
            prop_assert_eq!(
                summary::neighborhood_summary(&st, obj),
                browser.neighborhood_summary(obj)
            );
            for def in st.model().deriveds() {
                prop_assert_eq!(
                    summary::derived(&st, obj, &def.name),
                    browser.derived_by_name(obj, &def.name),
                    "{} from {}", def.name, obj
                );
            }
        }
    }

    /// Shortest paths equal the original breadth-first search — same
    /// nodes, same edge labels, same tie-breaks — at several depth caps,
    /// self-paths and unreachable pairs included.
    #[test]
    fn shortest_paths_match_the_original_browser(
        spec in graph_strategy(24),
        pairs in prop::collection::vec((0..64usize, 0..64usize), 1..6),
    ) {
        let st = build(&spec);
        let browser = Browser::new(&st);
        let slots = st.slot_count();
        for (a, b) in pairs {
            let (from, to) = (ObjectId((a % slots) as u64), ObjectId((b % slots) as u64));
            for depth in [0usize, 1, 2, 3, 6] {
                for (x, y) in [(from, to), (from, from)] {
                    prop_assert_eq!(
                        summary::shortest_path(&st, x, y, depth),
                        browser.path_between(x, y, depth),
                        "{} -> {} within {}", x, y, depth
                    );
                }
            }
        }
    }
}

/// A graph wide enough to cross [`PAR_MIN_FRONTIER`] so the scoped-thread
/// chunked expansion actually runs, then agree with single-threaded and
/// brute-force answers.
#[test]
fn parallel_expansion_crosses_the_threshold_and_agrees() {
    let mut st = Store::with_builtin_model();
    let src = st.register_source(SourceInfo::new("big", SourceKind::Synthetic));
    let m = st.model();
    let c_person = m.class(class::PERSON).unwrap();
    let c_message = m.class(class::MESSAGE).unwrap();
    let a_sender = m.assoc(assoc::SENDER).unwrap();
    let a_recipient = m.assoc(assoc::RECIPIENT).unwrap();
    let persons: Vec<ObjectId> = (0..120).map(|_| st.add_object(c_person)).collect();
    let messages: Vec<ObjectId> = (0..600).map(|_| st.add_object(c_message)).collect();
    for (i, &msg) in messages.iter().enumerate() {
        st.add_triple(msg, a_sender, persons[i % persons.len()], src)
            .unwrap();
        st.add_triple(msg, a_recipient, persons[(i * 7 + 3) % persons.len()], src)
            .unwrap();
    }
    let mcls = st.model().class(class::MESSAGE).unwrap();
    let plan = PathQuery::new(
        Start::Class(mcls),
        vec![
            Step::forward(a_sender),
            Step::inverse(a_sender),
            Step::forward(a_recipient),
        ],
    );
    assert!(
        messages.len() >= semex_query::exec::PAR_MIN_FRONTIER,
        "frontier large enough to split"
    );
    let want = reference(&st, &plan);
    for threads in [1usize, 2, 8] {
        let cfg = ExecConfig {
            threads,
            ..ExecConfig::default()
        };
        assert_eq!(run(&st, &plan, &cfg).unwrap(), want, "threads={threads}");
    }
}
