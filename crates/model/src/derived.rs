//! Derived associations.
//!
//! SEMEX's browsing power comes from associations the user never extracted
//! directly: `CoAuthor` is derived by composing `AuthoredBy` backwards and
//! forwards through Publication instances. A [`DerivedDef`] names such an
//! association and gives the rule ([`PathExpr`]) that computes it;
//! `semex-query` compiles rules to path steps and evaluates them against a
//! store.

use crate::{AssocId, ClassId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One navigation step inside a derived-association rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PathStep {
    /// Follow the association forwards: subject → object.
    Forward(AssocId),
    /// Follow the association backwards: object → subject.
    Inverse(AssocId),
}

impl PathStep {
    /// The association this step traverses.
    pub fn assoc(self) -> AssocId {
        match self {
            PathStep::Forward(a) | PathStep::Inverse(a) => a,
        }
    }
}

/// A rule computing a derived association.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PathExpr {
    /// A sequential composition of steps; the result relates the start of the
    /// first step to the end of the last step.
    Path(Vec<PathStep>),
    /// Union of alternative rules (deduplicated by the evaluator).
    Union(Vec<PathExpr>),
}

impl PathExpr {
    /// A single-path rule.
    pub fn path(steps: Vec<PathStep>) -> Self {
        PathExpr::Path(steps)
    }

    /// Convenience: the symmetric "share an object via `a`" pattern,
    /// `a ∘ a⁻¹` seen from the subject side — e.g. `CoAuthor` from
    /// `AuthoredBy` is `Inverse(AuthoredBy) ∘ Forward(AuthoredBy)` starting
    /// at a Person.
    pub fn share_subject(a: AssocId) -> Self {
        PathExpr::Path(vec![PathStep::Inverse(a), PathStep::Forward(a)])
    }

    /// All associations mentioned anywhere in the rule.
    pub fn assocs(&self) -> Vec<AssocId> {
        let mut out = Vec::new();
        self.collect_assocs(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_assocs(&self, out: &mut Vec<AssocId>) {
        match self {
            PathExpr::Path(steps) => out.extend(steps.iter().map(|s| s.assoc())),
            PathExpr::Union(alts) => {
                for alt in alts {
                    alt.collect_assocs(out);
                }
            }
        }
    }

    /// The number of traversal steps in the longest path of the rule.
    pub fn depth(&self) -> usize {
        match self {
            PathExpr::Path(steps) => steps.len(),
            PathExpr::Union(alts) => alts.iter().map(|a| a.depth()).max().unwrap_or(0),
        }
    }
}

impl fmt::Display for PathExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathExpr::Path(steps) => {
                for (i, s) in steps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∘ ")?;
                    }
                    match s {
                        PathStep::Forward(a) => write!(f, "{a}")?,
                        PathStep::Inverse(a) => write!(f, "{a}⁻¹")?,
                    }
                }
                Ok(())
            }
            PathExpr::Union(alts) => {
                for (i, a) in alts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ∪ ")?;
                    }
                    write!(f, "({a})")?;
                }
                Ok(())
            }
        }
    }
}

/// A named derived association together with its computing rule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DerivedDef {
    /// Unique name, e.g. `"CoAuthor"`.
    pub name: String,
    /// Class the derived association starts from.
    pub domain: ClassId,
    /// Class it lands on.
    pub range: ClassId,
    /// The computing rule.
    pub rule: PathExpr,
    /// Whether the relation is irreflexive (`x` never relates to itself) —
    /// true for `CoAuthor` and friends, where the evaluator drops self-loops.
    pub irreflexive: bool,
}

impl DerivedDef {
    /// A new derived association.
    pub fn new(name: impl Into<String>, domain: ClassId, range: ClassId, rule: PathExpr) -> Self {
        DerivedDef {
            name: name.into(),
            domain,
            range,
            rule,
            irreflexive: domain == range,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_subject_shape() {
        let a = AssocId(3);
        let e = PathExpr::share_subject(a);
        assert_eq!(
            e,
            PathExpr::Path(vec![PathStep::Inverse(a), PathStep::Forward(a)])
        );
        assert_eq!(e.depth(), 2);
        assert_eq!(e.assocs(), vec![a]);
    }

    #[test]
    fn union_collects_all_assocs() {
        let e = PathExpr::Union(vec![
            PathExpr::path(vec![
                PathStep::Forward(AssocId(1)),
                PathStep::Inverse(AssocId(2)),
            ]),
            PathExpr::path(vec![PathStep::Forward(AssocId(2))]),
        ]);
        assert_eq!(e.assocs(), vec![AssocId(1), AssocId(2)]);
        assert_eq!(e.depth(), 2);
    }

    #[test]
    fn display_renders_rules() {
        let e = PathExpr::share_subject(AssocId(0));
        assert_eq!(e.to_string(), "r0⁻¹ ∘ r0");
    }

    #[test]
    fn same_domain_range_defaults_irreflexive() {
        let d = DerivedDef::new(
            "CoAuthor",
            ClassId(0),
            ClassId(0),
            PathExpr::share_subject(AssocId(0)),
        );
        assert!(d.irreflexive);
        let d2 = DerivedDef::new(
            "CitedAuthor",
            ClassId(1),
            ClassId(0),
            PathExpr::path(vec![]),
        );
        assert!(!d2.irreflexive);
    }
}
