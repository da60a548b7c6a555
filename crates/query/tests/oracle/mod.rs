//! Reference implementations for the traversal core's equivalence
//! suite: the original association browser (neighbourhoods, derived
//! associations by rule interpretation, breadth-first connection paths)
//! and the original backtracking triple-pattern join, kept verbatim.
//! They walk the store's adjacency directly and share no code with the
//! engine beyond the pattern and link types.

use semex_model::{DerivedDef, PathExpr, PathStep};
use semex_query::join::{Binding, Pattern, Term};
use semex_query::summary::Link;
use semex_store::{ObjectId, Store};
use std::collections::{HashMap, HashSet, VecDeque};

/// A browsing view over a store.
pub struct Browser<'a> {
    store: &'a Store,
}

impl<'a> Browser<'a> {
    /// A browser over the given store.
    pub fn new(store: &'a Store) -> Self {
        Browser { store }
    }

    /// All direct links of an object: forward associations under their own
    /// name, inverse associations under their `inverse_label`. Results are
    /// sorted by label then target for deterministic display.
    pub fn neighborhood(&self, obj: ObjectId) -> Vec<Link> {
        let model = self.store.model();
        let mut out = Vec::new();
        for (assoc, def) in model.assocs() {
            for &t in self.store.neighbors(obj, assoc) {
                out.push(Link {
                    label: def.name.clone(),
                    target: t,
                    target_label: self.store.label(t),
                });
            }
            for &t in self.store.inverse_neighbors(obj, assoc) {
                out.push(Link {
                    label: def.inverse_label.clone(),
                    target: t,
                    target_label: self.store.label(t),
                });
            }
        }
        out.sort_by(|a, b| a.label.cmp(&b.label).then(a.target.cmp(&b.target)));
        out
    }

    /// Group the neighbourhood by label: `(label, count)` pairs, sorted.
    pub fn neighborhood_summary(&self, obj: ObjectId) -> Vec<(String, usize)> {
        let mut counts: Vec<(String, usize)> = Vec::new();
        for link in self.neighborhood(obj) {
            match counts.last_mut() {
                Some((label, c)) if *label == link.label => *c += 1,
                _ => counts.push((link.label, 1)),
            }
        }
        counts
    }

    /// Follow one step of a rule from a set of objects.
    fn step(&self, from: &[ObjectId], step: PathStep) -> Vec<ObjectId> {
        let mut out = Vec::new();
        for &o in from {
            let targets = match step {
                PathStep::Forward(a) => self.store.neighbors(o, a),
                PathStep::Inverse(a) => self.store.inverse_neighbors(o, a),
            };
            out.extend_from_slice(targets);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Evaluate a derived-association rule from a start object.
    pub fn eval_rule(&self, start: ObjectId, rule: &PathExpr) -> Vec<ObjectId> {
        match rule {
            PathExpr::Path(steps) => {
                let mut cur = vec![self.store.resolve(start)];
                for &s in steps {
                    cur = self.step(&cur, s);
                    if cur.is_empty() {
                        break;
                    }
                }
                cur
            }
            PathExpr::Union(alts) => {
                let mut out = Vec::new();
                for alt in alts {
                    out.extend(self.eval_rule(start, alt));
                }
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }

    /// Evaluate a derived association definition from a start object
    /// (drops the start itself when the definition is irreflexive).
    pub fn derived(&self, start: ObjectId, def: &DerivedDef) -> Vec<ObjectId> {
        let start = self.store.resolve(start);
        let mut out = self.eval_rule(start, &def.rule);
        if def.irreflexive {
            out.retain(|&o| o != start);
        }
        out
    }

    /// Evaluate a derived association by name. Returns `None` for an
    /// unknown name.
    pub fn derived_by_name(&self, start: ObjectId, name: &str) -> Option<Vec<ObjectId>> {
        let def = self.store.model().derived(name)?.clone();
        Some(self.derived(start, &def))
    }

    /// Breadth-first shortest path between two objects over all
    /// associations (both directions). Returns the node sequence with the
    /// labels of the traversed edges, or `None` when disconnected (search
    /// is capped at `max_depth` hops).
    pub fn path_between(
        &self,
        from: ObjectId,
        to: ObjectId,
        max_depth: usize,
    ) -> Option<Vec<(ObjectId, Option<String>)>> {
        let from = self.store.resolve(from);
        let to = self.store.resolve(to);
        if from == to {
            return Some(vec![(from, None)]);
        }
        let model = self.store.model();
        let mut prev: HashMap<ObjectId, (ObjectId, String)> = HashMap::new();
        let mut seen: HashSet<ObjectId> = HashSet::from([from]);
        let mut frontier = VecDeque::from([(from, 0usize)]);
        while let Some((cur, d)) = frontier.pop_front() {
            if d >= max_depth {
                continue;
            }
            for (assoc, def) in model.assocs() {
                let expansions = [
                    (self.store.neighbors(cur, assoc), &def.name),
                    (self.store.inverse_neighbors(cur, assoc), &def.inverse_label),
                ];
                for (targets, label) in expansions {
                    for &t in targets {
                        if seen.insert(t) {
                            prev.insert(t, (cur, label.clone()));
                            if t == to {
                                // Reconstruct.
                                let mut path = vec![(to, None)];
                                let mut at = to;
                                while at != from {
                                    let (p, label) = prev.get(&at).unwrap().clone();
                                    path.last_mut().unwrap().1 = Some(label);
                                    path.push((p, None));
                                    at = p;
                                }
                                path.reverse();
                                return Some(path);
                            }
                            frontier.push_back((t, d + 1));
                        }
                    }
                }
            }
        }
        None
    }
}

/// The in-flight binding environment: a stack of `(variable, value)`
/// frames. Binding pushes, backtracking truncates — no per-step map
/// clones or removals, and the join never hashes. Values are stored
/// alias-resolved, so lookups compare ids directly.
type Stack = Vec<(String, ObjectId)>;

fn lookup(stack: &[(String, ObjectId)], name: &str) -> Option<ObjectId> {
    stack.iter().rev().find(|(n, _)| n == name).map(|&(_, v)| v)
}

fn resolve(store: &Store, term: &Term, stack: &[(String, ObjectId)]) -> Option<ObjectId> {
    match term {
        Term::Const(o) => Some(store.resolve(*o)),
        Term::Var(v) => lookup(stack, v),
    }
}

/// How bound a pattern is under the current bindings (higher = cheaper).
fn boundness(store: &Store, p: &Pattern, stack: &[(String, ObjectId)]) -> u32 {
    u32::from(resolve(store, &p.subject, stack).is_some())
        + u32::from(resolve(store, &p.object, stack).is_some())
}

/// Evaluate a conjunctive pattern query, returning all variable bindings.
/// Solutions are deduplicated and returned in a deterministic order.
pub fn query(store: &Store, patterns: &[Pattern]) -> Vec<Binding> {
    let mut results = Vec::new();
    let mut stack = Stack::new();
    let mut used = vec![false; patterns.len()];
    solve(store, patterns, &mut used, &mut stack, &mut results);
    // Deterministic order: sort by the rendered binding.
    results.sort_by_key(|b| {
        let mut items: Vec<(&String, &ObjectId)> = b.iter().collect();
        items.sort();
        items
            .into_iter()
            .map(|(k, v)| format!("{k}={v};"))
            .collect::<String>()
    });
    results.dedup();
    results
}

fn solve(
    store: &Store,
    patterns: &[Pattern],
    used: &mut [bool],
    stack: &mut Stack,
    results: &mut Vec<Binding>,
) {
    // Pick the most-bound unused pattern.
    let next = (0..patterns.len())
        .filter(|&i| !used[i])
        .max_by_key(|&i| boundness(store, &patterns[i], stack));
    let Some(i) = next else {
        results.push(stack.iter().cloned().collect());
        return;
    };
    used[i] = true;
    let p = &patterns[i];
    let s = resolve(store, &p.subject, stack);
    let o = resolve(store, &p.object, stack);
    // Cycle guard: a pattern whose subject and object name the same
    // (still-unbound) variable — a variable revisited within one clause,
    // e.g. after returning to it through an inverse hop — can only match
    // self-loops. Enumerating only those keeps the revisit from fanning
    // out into pairs the bind check below would reject one by one.
    let self_loop = match (&p.subject, &p.object) {
        (Term::Var(a), Term::Var(b)) => a == b,
        _ => false,
    };

    // Enumerate matching (subject, object) pairs for this pattern.
    let candidates: Vec<(ObjectId, ObjectId)> = match (s, o) {
        (Some(s), Some(o)) => {
            if store.neighbors(s, p.assoc).contains(&o) {
                vec![(s, o)]
            } else {
                Vec::new()
            }
        }
        (Some(s), None) => store
            .neighbors(s, p.assoc)
            .iter()
            .filter(|&&t| !self_loop || t == s)
            .map(|&t| (s, t))
            .collect(),
        (None, Some(o)) => store
            .inverse_neighbors(o, p.assoc)
            .iter()
            .filter(|&&t| !self_loop || t == o)
            .map(|&t| (t, o))
            .collect(),
        (None, None) => {
            // Unbound pattern: enumerate every instance of the domain class.
            let domain = store.model().assoc_def(p.assoc).domain;
            let mut out = Vec::new();
            for s in store.objects_of_class(domain) {
                let s = store.resolve(s);
                for &t in store.neighbors(s, p.assoc) {
                    if !self_loop || t == s {
                        out.push((s, t));
                    }
                }
            }
            out
        }
    };

    for (sv, ov) in candidates {
        let depth = stack.len();
        let mut ok = true;
        for (term, value) in [(&p.subject, sv), (&p.object, ov)] {
            if let Term::Var(name) = term {
                let value = store.resolve(value);
                match lookup(stack, name) {
                    Some(bound) if bound != value => {
                        ok = false;
                        break;
                    }
                    Some(_) => {}
                    None => stack.push((name.clone(), value)),
                }
            }
        }
        if ok {
            solve(store, patterns, used, stack, results);
        }
        stack.truncate(depth);
    }
    used[i] = false;
}
