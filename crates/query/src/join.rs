//! Triple-pattern queries with variable joins.
//!
//! A query is a conjunction of patterns over the association graph:
//!
//! ```text
//! ?pub AuthoredBy ?p . ?pub PublishedIn "SIGMOD"
//! ```
//!
//! Variables bind objects; constants pin them. The serve layer's
//! `Request::Query` and the `semex query` command speak this surface.
//! Evaluation is a backtracking join that picks, at each step, the
//! most-bound remaining pattern (constants and already-bound variables
//! first). Every candidate enumeration is the engine's one-object hop —
//! the step `expand_hop` applies to every object of a path frontier.
//!
//! The join is bounded like a path plan: each enumerated candidate and
//! each object slot of a solution is charged against the engine's node
//! budget ([`ExecConfig::node_budget`]), so a cross product such as
//! `?a AuthoredBy ?b . ?c AuthoredBy ?d . ?e AuthoredBy ?f` is refused
//! with [`ExecError::Budget`] instead of materialising |E|³ bindings.

use crate::exec::{hop_targets, ExecConfig, ExecError};
use crate::step::Dir;
use semex_model::AssocId;
use semex_store::{ObjectId, Store};
use std::collections::HashMap;

/// A subject or object position in a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A named variable (`?p`).
    Var(String),
    /// A fixed object.
    Const(ObjectId),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(name.to_owned())
    }
}

/// One triple pattern: `subject --assoc--> object`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Subject position.
    pub subject: Term,
    /// The association to traverse.
    pub assoc: AssocId,
    /// Object position.
    pub object: Term,
}

impl Pattern {
    /// A new pattern.
    pub fn new(subject: Term, assoc: AssocId, object: Term) -> Self {
        Pattern {
            subject,
            assoc,
            object,
        }
    }
}

/// A variable binding set for one solution.
pub type Binding = HashMap<String, ObjectId>;

/// Why a textual pattern query produced no answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinError {
    /// The text did not parse.
    Parse(ParseError),
    /// The join enumerated more than the node budget allows.
    Budget(ExecError),
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinError::Parse(e) => e.fmt(f),
            JoinError::Budget(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for JoinError {}

impl From<ParseError> for JoinError {
    fn from(e: ParseError) -> Self {
        JoinError::Parse(e)
    }
}

impl From<ExecError> for JoinError {
    fn from(e: ExecError) -> Self {
        JoinError::Budget(e)
    }
}

/// Evaluate a conjunctive pattern query, returning all variable bindings,
/// deduplicated and deterministically ordered (by the rendered binding).
/// Refused with [`ExecError::Budget`] when the join enumerates more than
/// the default node budget.
pub fn query(store: &Store, patterns: &[Pattern]) -> Result<Vec<Binding>, ExecError> {
    query_within(store, patterns, ExecConfig::default().node_budget)
}

/// Parse and run a textual pattern query in one call.
pub fn query_str(store: &Store, text: &str) -> Result<Vec<Binding>, JoinError> {
    let patterns = parse_patterns(store, text)?;
    Ok(query(store, &patterns)?)
}

/// A pattern position after compilation: a variable's index into the
/// sorted variable list, or an alias-resolved constant.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Var(usize),
    Const(ObjectId),
}

fn query_within(
    store: &Store,
    patterns: &[Pattern],
    budget: usize,
) -> Result<Vec<Binding>, ExecError> {
    let mut vars: Vec<&str> = patterns
        .iter()
        .flat_map(|p| [&p.subject, &p.object])
        .filter_map(|t| match t {
            Term::Var(v) => Some(v.as_str()),
            Term::Const(_) => None,
        })
        .collect();
    vars.sort_unstable();
    vars.dedup();
    let slot = |t: &Term| match t {
        Term::Var(v) => Slot::Var(vars.binary_search(&v.as_str()).expect("collected above")),
        Term::Const(o) => Slot::Const(store.resolve(*o)),
    };
    let mut join = Join {
        store,
        patterns: patterns
            .iter()
            .map(|p| (slot(&p.subject), p.assoc, slot(&p.object)))
            .collect(),
        used: vec![false; patterns.len()],
        values: vec![None; vars.len()],
        rows: Vec::new(),
        count: 0,
        budget,
        limit: budget,
    };
    join.solve()?;

    // A solution is one object per variable, in variable-name order.
    let width = vars.len();
    let mut rows: Vec<&[ObjectId]> = (0..join.count)
        .map(|i| &join.rows[i * width..(i + 1) * width])
        .collect();
    rows.sort_by_key(|row| {
        vars.iter()
            .zip(row.iter())
            .map(|(k, v)| format!("{k}={v};"))
            .collect::<String>()
    });
    rows.dedup();
    Ok(rows
        .into_iter()
        .map(|row| {
            vars.iter()
                .zip(row)
                .map(|(k, &v)| (k.to_string(), v))
                .collect()
        })
        .collect())
}

/// The in-flight state of one backtracking join.
struct Join<'a> {
    store: &'a Store,
    patterns: Vec<(Slot, AssocId, Slot)>,
    used: Vec<bool>,
    /// The current binding of each variable (alias-resolved).
    values: Vec<Option<ObjectId>>,
    /// Complete solutions, `values.len()` objects each, back to back.
    rows: Vec<ObjectId>,
    count: usize,
    budget: usize,
    limit: usize,
}

impl Join<'_> {
    fn value(&self, slot: Slot) -> Option<ObjectId> {
        match slot {
            Slot::Var(v) => self.values[v],
            Slot::Const(o) => Some(o),
        }
    }

    fn charge(&mut self, n: usize) -> Result<(), ExecError> {
        if n > self.budget {
            return Err(ExecError::Budget { budget: self.limit });
        }
        self.budget -= n;
        Ok(())
    }

    fn solve(&mut self) -> Result<(), ExecError> {
        // Most-bound-first: constants and already-bound variables make the
        // candidate set a (near-)point lookup instead of a scan.
        let next = (0..self.patterns.len())
            .filter(|&i| !self.used[i])
            .max_by_key(|&i| {
                let (s, _, o) = self.patterns[i];
                u32::from(self.value(s).is_some()) + u32::from(self.value(o).is_some())
            });
        let Some(i) = next else {
            self.charge(self.values.len())?;
            let row = self.values.iter().map(|v| v.expect("every variable bound"));
            self.rows.extend(row);
            self.count += 1;
            return Ok(());
        };
        self.used[i] = true;
        let (subject, assoc, object) = self.patterns[i];
        let store = self.store;
        let s = self.value(subject);
        let o = self.value(object);
        // Both positions naming the same still-unbound variable force a
        // self-loop; the guard keeps revisited variables (e.g. a variable
        // re-reached through an inverse hop) from enumerating pairs that a
        // later bind check would reject anyway.
        let self_loop = matches!((subject, object), (Slot::Var(a), Slot::Var(b)) if a == b);
        let hop = |from: ObjectId, dir: Dir| hop_targets(store, from, dir, assoc, None);

        let candidates: Vec<(ObjectId, ObjectId)> = match (s, o) {
            (Some(s), Some(o)) => {
                if hop(s, Dir::Forward).any(|t| t == o) {
                    vec![(s, o)]
                } else {
                    Vec::new()
                }
            }
            (Some(s), None) => hop(s, Dir::Forward)
                .filter(|&t| !self_loop || t == s)
                .map(|t| (s, t))
                .collect(),
            (None, Some(o)) => hop(o, Dir::Inverse)
                .filter(|&t| !self_loop || t == o)
                .map(|t| (t, o))
                .collect(),
            (None, None) => {
                let domain = store.model().assoc_def(assoc).domain;
                let mut out = Vec::new();
                for s in store.objects_of_class(domain) {
                    let s = store.resolve(s);
                    for t in hop(s, Dir::Forward) {
                        if !self_loop || t == s {
                            out.push((s, t));
                        }
                    }
                }
                out
            }
        };
        self.charge(candidates.len())?;

        for (sv, ov) in candidates {
            // Variables this candidate binds, to unbind on backtrack.
            let mut fresh = [None; 2];
            let mut ok = true;
            for (k, (slot, value)) in [(subject, sv), (object, ov)].into_iter().enumerate() {
                if let Slot::Var(v) = slot {
                    let value = store.resolve(value);
                    match self.values[v] {
                        Some(bound) if bound != value => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            self.values[v] = Some(value);
                            fresh[k] = Some(v);
                        }
                    }
                }
            }
            let solved = if ok { self.solve() } else { Ok(()) };
            for v in fresh.into_iter().flatten() {
                self.values[v] = None;
            }
            solved?;
        }
        self.used[i] = false;
        Ok(())
    }
}

/// Errors from the textual pattern parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A clause did not have the `subject Assoc object` shape.
    BadClause(String),
    /// The association name is not in the domain model.
    UnknownAssoc(String),
    /// A quoted label matched no object (or a raw `oN` id was out of range).
    UnknownObject(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::BadClause(c) => write!(f, "bad clause (want `subj Assoc obj`): {c:?}"),
            ParseError::UnknownAssoc(a) => write!(f, "unknown association: {a:?}"),
            ParseError::UnknownObject(o) => write!(f, "no object matches {o:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Split text on `sep` characters outside double quotes, dropping empty
/// pieces.
fn split_unquoted(text: &str, sep: impl Fn(char) -> bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quote = false;
    for c in text.chars() {
        if c == '"' {
            in_quote = !in_quote;
        } else if !in_quote && sep(c) {
            if !cur.trim().is_empty() {
                out.push(std::mem::take(&mut cur));
            }
            cur.clear();
            continue;
        }
        cur.push(c);
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out
}

fn term(store: &Store, token: &str) -> Result<Term, ParseError> {
    if let Some(var) = token.strip_prefix('?') {
        if !var.is_empty() {
            return Ok(Term::var(var));
        }
    }
    if let Some(id) = token.strip_prefix('o').and_then(|n| n.parse::<u64>().ok()) {
        let obj = ObjectId(id);
        if store.object_raw(obj).is_none() {
            return Err(ParseError::UnknownObject(token.to_owned()));
        }
        return Ok(Term::Const(obj));
    }
    if token.starts_with('"') && token.ends_with('"') && token.len() >= 2 {
        let label = &token[1..token.len() - 1];
        let found = store.objects().find(|&o| store.label(o) == label);
        return match found {
            Some(o) => Ok(Term::Const(o)),
            None => Err(ParseError::UnknownObject(label.to_owned())),
        };
    }
    Err(ParseError::BadClause(token.to_owned()))
}

/// Parse a textual conjunctive query into patterns:
///
/// ```text
/// ?pub AuthoredBy ?p . ?pub PublishedIn "SIGMOD"
/// ```
///
/// Subjects/objects are `?variables`, raw ids (`o42`) or `"exact labels"`;
/// clauses are separated by `.` or `;`. Association names are the domain
/// model's (forward direction).
pub fn parse_patterns(store: &Store, text: &str) -> Result<Vec<Pattern>, ParseError> {
    let mut out = Vec::new();
    for clause in split_unquoted(text, |c| c == '.' || c == ';') {
        let f = split_unquoted(&clause, char::is_whitespace);
        let [s, a, o] = f.as_slice() else {
            return Err(ParseError::BadClause(clause.trim().to_owned()));
        };
        let assoc = store
            .model()
            .assoc(a)
            .ok_or_else(|| ParseError::UnknownAssoc(a.clone()))?;
        out.push(Pattern::new(term(store, s)?, assoc, term(store, o)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_extract::{bibtex::extract_bibtex, ExtractContext};
    use semex_model::names::{assoc, class};
    use semex_store::{SourceInfo, SourceKind};
    use std::collections::HashSet;

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

    fn find(st: &Store, class_name: &str, label: &str) -> ObjectId {
        let c = st.model().class(class_name).unwrap();
        st.objects_of_class(c)
            .find(|&o| st.label(o) == label)
            .unwrap()
    }

    #[test]
    fn join_authors_with_venues() {
        let st = store();
        let authored = st.model().assoc(assoc::AUTHORED_BY).unwrap();
        let published = st.model().assoc(assoc::PUBLISHED_IN).unwrap();
        let sigmod = find(&st, class::VENUE, "SIGMOD");
        let solutions = query(
            &st,
            &[
                Pattern::new(Term::var("pub"), authored, Term::var("p")),
                Pattern::new(Term::var("pub"), published, Term::Const(sigmod)),
            ],
        )
        .unwrap();
        let people: HashSet<String> = solutions.iter().map(|b| st.label(b["p"])).collect();
        assert_eq!(people.len(), 2, "Ann and Bob both published at SIGMOD");
        // Three (pub, person) pairs: PaperOne×2 authors + PaperTwo×1.
        assert_eq!(solutions.len(), 3);
    }

    #[test]
    fn shared_variable_joins() {
        let st = store();
        let authored = st.model().assoc(assoc::AUTHORED_BY).unwrap();
        let solutions = query(
            &st,
            &[
                Pattern::new(Term::var("pub"), authored, Term::var("x")),
                Pattern::new(Term::var("pub"), authored, Term::var("y")),
            ],
        )
        .unwrap();
        // Paper One yields 2x2, Papers Two/Three 1 each → 6 bindings.
        assert_eq!(solutions.len(), 6);
        let crossed = solutions.iter().filter(|b| b["x"] != b["y"]).count();
        assert_eq!(crossed, 2, "Ann-Bob both ways");
    }

    #[test]
    fn fully_bound_pattern_checks_edges() {
        let st = store();
        let authored = st.model().assoc(assoc::AUTHORED_BY).unwrap();
        let paper_one = find(&st, class::PUBLICATION, "Paper One");
        let paper_three = find(&st, class::PUBLICATION, "Paper Three");
        let ann = find(&st, class::PERSON, "Ann Walker");
        let edge = |paper| Pattern::new(Term::Const(paper), authored, Term::Const(ann));
        let sols = query(&st, &[edge(paper_one)]).unwrap();
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_empty(), "no variables to bind");
        assert!(query(&st, &[edge(paper_three)]).unwrap().is_empty());
    }

    #[test]
    fn empty_patterns_yield_one_empty_binding() {
        let st = store();
        let sols = query(&st, &[]).unwrap();
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_empty());
        assert_eq!(query_str(&st, "").unwrap().len(), 1);
    }

    #[test]
    fn textual_queries_parse_and_run() {
        let st = store();
        let sols = query_str(&st, r#"?pub AuthoredBy ?p . ?pub PublishedIn "SIGMOD""#).unwrap();
        assert_eq!(sols.len(), 3);
        let people: HashSet<String> = sols.iter().map(|b| st.label(b["p"])).collect();
        assert!(people.contains("Ann Walker"));
        assert!(people.contains("Bob Fisher"));

        // Quoted label as subject; semicolon separator.
        let sols = query_str(&st, r#""Paper One" AuthoredBy ?who; ?pub2 AuthoredBy ?who"#).unwrap();
        assert_eq!(sols.len(), 4, "Ann's two papers and Bob's two");
    }

    #[test]
    fn answers_come_in_rendered_binding_order() {
        let st = store();
        let sols = query_str(&st, "?a AuthoredBy ?b").unwrap();
        let rendered: Vec<String> = sols
            .iter()
            .map(|b| format!("{}>{}", st.label(b["a"]), st.label(b["b"])))
            .collect();
        assert_eq!(
            rendered,
            [
                "Paper One>Ann Walker",
                "Paper One>Bob Fisher",
                "Paper Two>Ann Walker",
                "Paper Three>Bob Fisher"
            ]
        );
        // A variable in both positions only matches self-loops; there are
        // none.
        assert!(query_str(&st, "?m RepliedTo ?m").unwrap().is_empty());
    }

    #[test]
    fn textual_query_errors() {
        let st = store();
        let parse_err = |text| match query_str(&st, text) {
            Err(JoinError::Parse(e)) => e,
            other => panic!("{text}: {other:?}"),
        };
        assert!(matches!(
            parse_err("?a Bogus ?b"),
            ParseError::UnknownAssoc(_)
        ));
        assert!(matches!(
            parse_err("?a AuthoredBy"),
            ParseError::BadClause(_)
        ));
        assert!(matches!(
            parse_err(r#"?a AuthoredBy "No Such Label""#),
            ParseError::UnknownObject(_)
        ));
        assert!(matches!(
            parse_err("?a AuthoredBy o99999"),
            ParseError::UnknownObject(_)
        ));
        // The wire reports these as `bad pattern query: …`; the text is
        // part of the protocol.
        assert_eq!(
            parse_err("?x ?y").to_string(),
            "bad clause (want `subj Assoc obj`): \"?x ?y\""
        );
        assert_eq!(
            parse_err("?a Bogus ?b").to_string(),
            "unknown association: \"Bogus\""
        );
    }

    #[test]
    fn cross_products_are_refused_at_the_node_budget() {
        // 40 papers with 3 authors each: 120 AuthoredBy edges, so the
        // three-way cross product below has 1.7M solutions.
        let bib: String = (0..40)
            .map(|i| {
                format!(
                    "@inproceedings{{k{i}, title={{Paper {i}}}, author={{A{i} Aa and B{i} Bb and C{i} Cc}}, booktitle={{V}}, year=2004}}\n"
                )
            })
            .collect();
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        extract_bibtex(&bib, &mut ExtractContext::new(&mut st, src)).unwrap();
        let text = "?a AuthoredBy ?b . ?c AuthoredBy ?d . ?e AuthoredBy ?f";
        let budget = ExecConfig::default().node_budget;
        assert_eq!(
            query_str(&st, text),
            Err(JoinError::Budget(ExecError::Budget { budget }))
        );
        // The pairwise join is well inside the budget.
        assert_eq!(
            query_str(&st, "?a AuthoredBy ?b . ?c AuthoredBy ?d")
                .unwrap()
                .len(),
            120 * 120
        );
        // A tiny budget refuses even a small join.
        let patterns = parse_patterns(&st, "?a AuthoredBy ?b").unwrap();
        assert_eq!(
            query_within(&st, &patterns, 10),
            Err(ExecError::Budget { budget: 10 })
        );
    }
}
