//! Plan execution: batched, optionally parallel frontier expansion with
//! deterministic results and cursor pagination.
//!
//! The frontier invariant — sorted, deduplicated, alias-resolved — is
//! restored after every step, which makes results a pure function of
//! `(snapshot, plan)`: the same plan at the same epoch yields the same
//! object sequence at **any** thread count. Pagination exploits exactly
//! that: a page is a slice of the deterministic result order, and the
//! cursor records where the slice ended.

use crate::cursor::{Cursor, CursorError};
use crate::plan::{PathQuery, Start};
use crate::step::{Dir, Filter, Step};
use semex_model::Value;
use semex_store::{ObjectId, Store};

/// Frontiers below this size expand sequentially even when more threads
/// are available: spawning costs more than the scan it saves.
pub const PAR_MIN_FRONTIER: usize = 256;

/// Execution knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Worker threads for frontier expansion (1 = sequential).
    pub threads: usize,
    /// Cap on the cumulative number of neighbour expansions a single
    /// query may perform; exceeding it aborts with [`ExecError::Budget`]
    /// instead of letting one explosive plan monopolise a worker.
    pub node_budget: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 1,
            node_budget: 8_000_000,
        }
    }
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The plan expanded more nodes than the configured budget allows.
    Budget {
        /// The budget that was exhausted.
        budget: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Budget { budget } => {
                write!(
                    f,
                    "query expanded more than {budget} nodes; add filters or fan-out bounds"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// One page of results plus the cursor to fetch the next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageOut {
    /// The page's objects, in the engine's deterministic order.
    pub items: Vec<ObjectId>,
    /// Size of the full (unpaginated) result set.
    pub total: usize,
    /// Cursor for the next page; `None` when this page ends the set.
    pub next: Option<Cursor>,
}

/// Run a plan to completion, returning the full result frontier in the
/// engine's deterministic order (ascending object id).
pub fn run(store: &Store, plan: &PathQuery, cfg: &ExecConfig) -> Result<Vec<ObjectId>, ExecError> {
    let mut budget = cfg.node_budget;
    let frontier = seed(store, &plan.start);
    eval_steps(store, frontier, &plan.steps, cfg, &mut budget)
}

/// Run a plan and slice one page out of its deterministic result order.
///
/// `after` resumes from a cursor minted by an earlier page at the same
/// `epoch`; the returned page is byte-identical to the corresponding
/// slice of an unpaginated run. Errors distinguish a foreign cursor
/// ([`CursorError::PlanMismatch`]), an advanced snapshot
/// ([`CursorError::Expired`]) and an exhausted node budget.
pub fn run_page(
    store: &Store,
    plan: &PathQuery,
    cfg: &ExecConfig,
    epoch: u64,
    page_size: usize,
    after: Option<&Cursor>,
) -> Result<PageOut, PageError> {
    let fingerprint = plan.fingerprint(store.model());
    if let Some(c) = after {
        c.check(fingerprint, epoch).map_err(PageError::Cursor)?;
    }
    let all = run(store, plan, cfg).map_err(PageError::Exec)?;
    let skip = match after {
        Some(c) => all.partition_point(|&o| o.0 <= c.pos),
        None => 0,
    };
    let page_size = page_size.max(1);
    let end = (skip + page_size).min(all.len());
    let items: Vec<ObjectId> = all[skip..end].to_vec();
    let next = (end < all.len()).then(|| Cursor {
        epoch,
        plan: fingerprint,
        pos: items.last().map_or(0, |o| o.0),
    });
    Ok(PageOut {
        items,
        total: all.len(),
        next,
    })
}

/// Pagination failure: cursor trouble or execution trouble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// The cursor was malformed, foreign, or expired.
    Cursor(CursorError),
    /// The underlying run failed.
    Exec(ExecError),
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::Cursor(e) => e.fmt(f),
            PageError::Exec(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for PageError {}

/// Seed the first frontier from a start spec (sorted, deduped, resolved).
fn seed(store: &Store, start: &Start) -> Vec<ObjectId> {
    let mut out: Vec<ObjectId> = match start {
        Start::All => store.objects().map(|o| store.resolve(o)).collect(),
        Start::Class(c) => store
            .objects_of_class(*c)
            .map(|o| store.resolve(o))
            .collect(),
        Start::Labeled(c, label) => store
            .find_by_label(*c, label)
            .map(|o| store.resolve(o))
            .collect(),
        Start::Object(o) => match store.object_raw(*o) {
            Some(_) => vec![store.resolve(*o)],
            None => Vec::new(),
        },
    };
    out.sort_unstable();
    out.dedup();
    out
}

/// Apply a step sequence to a frontier, restoring the invariant after
/// each step.
fn eval_steps(
    store: &Store,
    mut frontier: Vec<ObjectId>,
    steps: &[Step],
    cfg: &ExecConfig,
    budget: &mut usize,
) -> Result<Vec<ObjectId>, ExecError> {
    for step in steps {
        if frontier.is_empty() {
            return Ok(frontier);
        }
        frontier = eval_step(store, frontier, step, cfg, budget)?;
    }
    Ok(frontier)
}

fn eval_step(
    store: &Store,
    frontier: Vec<ObjectId>,
    step: &Step,
    cfg: &ExecConfig,
    budget: &mut usize,
) -> Result<Vec<ObjectId>, ExecError> {
    match step {
        Step::Hop { dir, assoc, fanout } => {
            let mut out = expand_hop(store, &frontier, *dir, *assoc, *fanout, cfg.threads);
            charge(budget, out.len(), cfg)?;
            out.sort_unstable();
            out.dedup();
            Ok(out)
        }
        Step::Class(c) => {
            let mut frontier = frontier;
            frontier.retain(|&o| store.class_of(o) == *c);
            Ok(frontier)
        }
        Step::Filter(f) => {
            let mut frontier = frontier;
            frontier.retain(|&o| eval_filter(store, o, f));
            Ok(frontier)
        }
        Step::Union(branches) => {
            let mut out = Vec::new();
            for branch in branches {
                out.extend(eval_steps(store, frontier.clone(), branch, cfg, budget)?);
            }
            out.sort_unstable();
            out.dedup();
            Ok(out)
        }
        Step::Optional(branch) => {
            let mut out = eval_steps(store, frontier.clone(), branch, cfg, budget)?;
            out.extend(frontier);
            out.sort_unstable();
            out.dedup();
            Ok(out)
        }
        Step::Repeat { steps, max_depth } => {
            // Breadth-first closure with a visited-set cycle guard: each
            // object is expanded at most once, so cycles terminate and the
            // work is bounded by the reachable set, not the depth.
            let mut visited = frontier.clone();
            let mut layer = frontier;
            let mut out = Vec::new();
            for _ in 0..*max_depth {
                let produced = eval_steps(store, layer, steps, cfg, budget)?;
                let mut fresh: Vec<ObjectId> = produced
                    .into_iter()
                    .filter(|o| visited.binary_search(o).is_err())
                    .collect();
                fresh.sort_unstable();
                fresh.dedup();
                if fresh.is_empty() {
                    break;
                }
                for &o in &fresh {
                    let at = visited.binary_search(&o).unwrap_err();
                    visited.insert(at, o);
                }
                out.extend_from_slice(&fresh);
                layer = fresh;
            }
            out.sort_unstable();
            Ok(out)
        }
    }
}

fn charge(budget: &mut usize, produced: usize, cfg: &ExecConfig) -> Result<(), ExecError> {
    if produced > *budget {
        return Err(ExecError::Budget {
            budget: cfg.node_budget,
        });
    }
    *budget -= produced;
    Ok(())
}

/// One object's neighbours over one association, alias-resolved, at most
/// `fanout` of them in stored (hence deterministic) order. This is the
/// single neighbour-expansion step: [`expand_hop`] applies it to a
/// frontier, and browsing and pattern joins apply it to one object
/// without allocating.
pub(crate) fn hop_targets(
    store: &Store,
    src: ObjectId,
    dir: Dir,
    assoc: semex_model::AssocId,
    fanout: Option<usize>,
) -> impl Iterator<Item = ObjectId> + '_ {
    let neighbors = match dir {
        Dir::Forward => store.neighbors(src, assoc),
        Dir::Inverse => store.inverse_neighbors(src, assoc),
    };
    let take = fanout.unwrap_or(neighbors.len()).min(neighbors.len());
    neighbors[..take].iter().map(|&t| store.resolve(t))
}

/// Expand one hop over the whole frontier, splitting large frontiers
/// across scoped worker threads. Chunks are concatenated in frontier
/// order and the caller sorts + dedups, so the result is independent of
/// the thread count.
pub(crate) fn expand_hop(
    store: &Store,
    frontier: &[ObjectId],
    dir: Dir,
    assoc: semex_model::AssocId,
    fanout: Option<usize>,
    threads: usize,
) -> Vec<ObjectId> {
    let expand_into = |src: ObjectId, out: &mut Vec<ObjectId>| {
        out.extend(hop_targets(store, src, dir, assoc, fanout));
    };
    if threads <= 1 || frontier.len() < PAR_MIN_FRONTIER {
        let mut out = Vec::new();
        for &src in frontier {
            expand_into(src, &mut out);
        }
        return out;
    }
    let chunk = frontier.len().div_ceil(threads);
    let expand_into = &expand_into;
    let parts: Vec<Vec<ObjectId>> = std::thread::scope(|scope| {
        let handles: Vec<_> = frontier
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for &src in part {
                        expand_into(src, &mut out);
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

/// Evaluate an attribute predicate against one object.
fn eval_filter(store: &Store, obj: ObjectId, filter: &Filter) -> bool {
    let object = store.object(obj);
    match filter {
        Filter::AttrEq(attr, want) => object.values(*attr).any(|v| match v.as_str() {
            Some(s) => s == want,
            None => v.to_string() == *want,
        }),
        Filter::AttrContains(attr, needle) => {
            let needle = needle.to_lowercase();
            object.values(*attr).any(|v| match v.as_str() {
                Some(s) => s.to_lowercase().contains(&needle),
                None => v.to_string().to_lowercase().contains(&needle),
            })
        }
        Filter::Range { attr, min, max } => object.values(*attr).any(|v| {
            let n = match v {
                Value::Int(i) => *i,
                Value::Date(d) => *d,
                _ => return false,
            };
            min.is_none_or(|m| n >= m) && max.is_none_or(|m| n <= m)
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Start;
    use semex_extract::{bibtex::extract_bibtex, ExtractContext};
    use semex_model::names::{assoc, attr, class};
    use semex_store::{SourceInfo, SourceKind};

    fn store() -> Store {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let mut ctx = ExtractContext::new(&mut st, src);
        extract_bibtex(
            "@inproceedings{a, title={Paper One}, author={Ann Walker and Bob Fisher}, booktitle={SIGMOD}, year=2004}\n\
             @inproceedings{b, title={Paper Two}, author={Ann Walker}, booktitle={SIGMOD}, year=2005}\n\
             @inproceedings{c, title={Paper Three}, author={Bob Fisher}, booktitle={VLDB}, year=2005}",
            &mut ctx,
        )
        .unwrap();
        st
    }

    fn ids(st: &Store, labels: &[&str]) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = st
            .objects()
            .filter(|&o| labels.contains(&st.label(o).as_str()))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn hop_filter_and_class_compose() {
        let st = store();
        let m = st.model();
        let person = m.class(class::PERSON).unwrap();
        let authored = m.assoc(assoc::AUTHORED_BY).unwrap();
        let year = m.attr(attr::YEAR).unwrap();
        // Papers from 2005 by anyone, then their authors.
        let plan = PathQuery::new(
            Start::Class(m.class(class::PUBLICATION).unwrap()),
            vec![
                Step::Filter(Filter::Range {
                    attr: year,
                    min: Some(2005),
                    max: Some(2005),
                }),
                Step::forward(authored),
                Step::Class(person),
            ],
        );
        let got = run(&st, &plan, &ExecConfig::default()).unwrap();
        assert_eq!(got, ids(&st, &["Ann Walker", "Bob Fisher"]));
    }

    #[test]
    fn fanout_bounds_expansion() {
        let st = store();
        let m = st.model();
        let authored = m.assoc(assoc::AUTHORED_BY).unwrap();
        let paper_one = ids(&st, &["Paper One"])[0];
        let plan = PathQuery::new(
            Start::Object(paper_one),
            vec![Step::Hop {
                dir: Dir::Forward,
                assoc: authored,
                fanout: Some(1),
            }],
        );
        let got = run(&st, &plan, &ExecConfig::default()).unwrap();
        assert_eq!(got.len(), 1, "two authors bounded to one");
    }

    #[test]
    fn union_and_optional() {
        let st = store();
        let m = st.model();
        let authored = m.assoc(assoc::AUTHORED_BY).unwrap();
        let published = m.assoc(assoc::PUBLISHED_IN).unwrap();
        let paper_one = ids(&st, &["Paper One"])[0];
        let union = PathQuery::new(
            Start::Object(paper_one),
            vec![Step::Union(vec![
                vec![Step::forward(authored)],
                vec![Step::forward(published)],
            ])],
        );
        let got = run(&st, &union, &ExecConfig::default()).unwrap();
        assert_eq!(got, ids(&st, &["Ann Walker", "Bob Fisher", "SIGMOD"]));

        let optional = PathQuery::new(
            Start::Object(paper_one),
            vec![Step::Optional(vec![Step::forward(published)])],
        );
        let got = run(&st, &optional, &ExecConfig::default()).unwrap();
        let mut want = ids(&st, &["Paper One", "SIGMOD"]);
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn repeat_closure_guards_cycles() {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let c_pub = st.model().class(class::PUBLICATION).unwrap();
        let cites = st.model().assoc(assoc::CITES).unwrap();
        let papers: Vec<ObjectId> = (0..4).map(|_| st.add_object(c_pub)).collect();
        // A ring: p0 -> p1 -> p2 -> p3 -> p0.
        for i in 0..4 {
            st.add_triple(papers[i], cites, papers[(i + 1) % 4], src)
                .unwrap();
        }
        let plan = PathQuery::new(
            Start::Object(papers[0]),
            vec![Step::Repeat {
                steps: vec![Step::forward(cites)],
                max_depth: 50,
            }],
        );
        let got = run(&st, &plan, &ExecConfig::default()).unwrap();
        // Reaches p1, p2, p3; the guard stops the ring from looping and
        // the start is not re-emitted.
        assert_eq!(got, vec![papers[1], papers[2], papers[3]]);
    }

    #[test]
    fn budget_aborts_explosive_plans() {
        let st = store();
        let m = st.model();
        let authored = m.assoc(assoc::AUTHORED_BY).unwrap();
        let plan = PathQuery::new(
            Start::Class(m.class(class::PUBLICATION).unwrap()),
            vec![Step::forward(authored)],
        );
        let cfg = ExecConfig {
            threads: 1,
            node_budget: 1,
        };
        assert!(matches!(
            run(&st, &plan, &cfg),
            Err(ExecError::Budget { budget: 1 })
        ));
    }

    #[test]
    fn pagination_stitches_to_full_run() {
        let st = store();
        let m = st.model();
        let person = m.class(class::PERSON).unwrap();
        let plan = PathQuery::new(Start::Class(person), vec![]);
        let cfg = ExecConfig::default();
        let all = run(&st, &plan, &cfg).unwrap();
        let mut stitched = Vec::new();
        let mut cursor: Option<Cursor> = None;
        loop {
            let page = run_page(&st, &plan, &cfg, 7, 1, cursor.as_ref()).unwrap();
            assert_eq!(page.total, all.len());
            stitched.extend(page.items);
            match page.next {
                Some(c) => cursor = Some(c),
                None => break,
            }
        }
        assert_eq!(stitched, all);
        // Replaying the first page at the same epoch is identical.
        let again = run_page(&st, &plan, &cfg, 7, 1, None).unwrap();
        assert_eq!(again.items, all[..1].to_vec());
        // A cursor from another epoch is refused as expired.
        let stale = Cursor {
            epoch: 6,
            plan: plan.fingerprint(m),
            pos: 0,
        };
        assert!(matches!(
            run_page(&st, &plan, &cfg, 7, 1, Some(&stale)),
            Err(PageError::Cursor(CursorError::Expired {
                cursor: 6,
                current: 7
            }))
        ));
        // A cursor from another plan is refused as foreign.
        let foreign = Cursor {
            epoch: 7,
            plan: 123,
            pos: 0,
        };
        assert!(matches!(
            run_page(&st, &plan, &cfg, 7, 1, Some(&foreign)),
            Err(PageError::Cursor(CursorError::PlanMismatch))
        ));
    }
}
