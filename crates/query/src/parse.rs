//! The textual path syntax.
//!
//! ```text
//! Person("Dana Avery") <-Sender [date in 1100..1200] ->Recipient ->CoAuthor <-AuthoredBy
//! ```
//!
//! reads: from the person labelled "Dana Avery", to the messages they
//! sent (`<-Sender`: inverse hop), keep those in the date window, hop to
//! the people who received them, expand to their co-authors (a derived
//! association, inlined from the model's rule), and land on the
//! publications those co-authors wrote.
//!
//! Grammar (whitespace-separated steps after the start term):
//!
//! ```text
//! path   := start step*
//! start  := '*' | Class | Class '(' quoted ')' | 'o' digits
//! step   := ('->' | '<-') Name ['#' k] ['*' n]   hop (assoc or derived);
//!                                                '#k' bounds fan-out,
//!                                                '*n' repeats up to n deep
//!        |  ':' Class                            class constraint
//!        |  '[' attr ('=' | '~') value ']'       equality / substring
//!        |  '[' attr ('>=' | '<=') int ']'       half-open range
//!        |  '[' attr 'in' [int] '..' [int] ']'   inclusive range
//!        |  '(' steps ('|' steps)* ')' ['*' n]   union of branches
//!        |  '?(' steps ')'                       optional branch
//!        |  '{' steps '}' '*' n                  bounded closure
//! ```
//!
//! Values may be bare words or `"quoted strings"` (`\"` escapes).

use crate::plan::{PathQuery, Start};
use crate::step::{Dir, Filter, Step};
use semex_model::{PathExpr, PathStep};
use semex_store::Store;

/// A path text the parser cannot accept, with the byte offset it gave up
/// at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Character offset into the query text.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "path parse error at {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a textual path query against a store's model. The result is
/// validated but not yet [optimized](PathQuery::optimize).
pub fn parse(store: &Store, text: &str) -> Result<PathQuery, ParseError> {
    let mut p = Parser {
        chars: text.chars().collect(),
        pos: 0,
        store,
    };
    p.skip_ws();
    let start = p.start()?;
    let steps = p.steps(&[])?;
    p.skip_ws();
    if p.pos < p.chars.len() {
        return Err(p.err(format!("unexpected {:?}", p.chars[p.pos])));
    }
    let plan = PathQuery::new(start, steps);
    plan.validate(store.model()).map_err(|e| ParseError {
        message: e.to_string(),
        at: 0,
    })?;
    Ok(plan)
}

struct Parser<'a> {
    chars: Vec<char>,
    pos: usize,
    store: &'a Store,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            message: message.into(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn eat(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat(c) {
            Ok(())
        } else {
            Err(self.err(format!("expected {c:?}")))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        let from = self.pos;
        while self.peek().is_some_and(|c| c.is_alphanumeric() || c == '_') {
            self.pos += 1;
        }
        if self.pos == from {
            return Err(self.err("expected a name"));
        }
        Ok(self.chars[from..self.pos].iter().collect())
    }

    fn number(&mut self) -> Result<usize, ParseError> {
        let from = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == from {
            return Err(self.err("expected a number"));
        }
        let text: String = self.chars[from..self.pos].iter().collect();
        text.parse().map_err(|_| self.err("number out of range"))
    }

    fn integer(&mut self) -> Result<i64, ParseError> {
        let neg = self.eat('-');
        let n = self.number()? as i64;
        Ok(if neg { -n } else { n })
    }

    fn quoted(&mut self) -> Result<String, ParseError> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some(c) => out.push(c),
                    None => return Err(self.err("unterminated escape")),
                },
                Some(c) => out.push(c),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// A filter value: quoted string or bare word (no whitespace / `]`).
    fn value(&mut self) -> Result<String, ParseError> {
        if self.peek() == Some('"') {
            return self.quoted();
        }
        let from = self.pos;
        while self.peek().is_some_and(|c| !c.is_whitespace() && c != ']') {
            self.pos += 1;
        }
        if self.pos == from {
            return Err(self.err("expected a value"));
        }
        Ok(self.chars[from..self.pos].iter().collect())
    }

    fn start(&mut self) -> Result<Start, ParseError> {
        if self.eat('*') {
            return Ok(Start::All);
        }
        let at = self.pos;
        let name = self
            .ident()
            .map_err(|_| self.err("expected a start term: '*', a class name, or an object id"))?;
        // `o42`-style raw object ids win over (nonexistent) classes named
        // like them.
        if let Some(digits) = name.strip_prefix('o') {
            if !digits.is_empty() && digits.chars().all(|c| c.is_ascii_digit()) {
                let id = digits
                    .parse::<u64>()
                    .map_err(|_| self.err("object id out of range"))?;
                let obj = semex_store::ObjectId(id);
                if self.store.object_raw(obj).is_none() {
                    return Err(ParseError {
                        message: format!("no object {name}"),
                        at,
                    });
                }
                return Ok(Start::Object(obj));
            }
        }
        let class = self.store.model().class(&name).ok_or_else(|| ParseError {
            message: format!("unknown class {name:?}"),
            at,
        })?;
        if self.eat('(') {
            let label = self.quoted()?;
            self.expect(')')?;
            return Ok(Start::Labeled(class, label));
        }
        Ok(Start::Class(class))
    }

    /// Parse steps until end of input or one of `stop`.
    fn steps(&mut self, stop: &[char]) -> Result<Vec<Step>, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                None => return Ok(out),
                Some(c) if stop.contains(&c) => return Ok(out),
                Some(_) => out.extend(self.step()?),
            }
        }
    }

    /// One step; hops over derived associations may expand to several.
    fn step(&mut self) -> Result<Vec<Step>, ParseError> {
        match self.peek() {
            Some('-') | Some('<') => self.hop(),
            Some(':') => {
                self.pos += 1;
                let at = self.pos;
                let name = self.ident()?;
                let class = self.store.model().class(&name).ok_or_else(|| ParseError {
                    message: format!("unknown class {name:?}"),
                    at,
                })?;
                Ok(vec![Step::Class(class)])
            }
            Some('[') => self.filter(),
            Some('(') => {
                self.pos += 1;
                let mut branches = vec![self.steps(&['|', ')'])?];
                while self.eat('|') {
                    branches.push(self.steps(&['|', ')'])?);
                }
                self.expect(')')?;
                let step = Step::Union(branches);
                Ok(vec![self.maybe_repeat(step)?])
            }
            Some('?') => {
                self.pos += 1;
                self.expect('(')?;
                let branch = self.steps(&[')'])?;
                self.expect(')')?;
                Ok(vec![Step::Optional(branch)])
            }
            Some('{') => {
                self.pos += 1;
                let steps = self.steps(&['}'])?;
                self.expect('}')?;
                self.expect('*')?;
                let max_depth = self.number()?;
                Ok(vec![Step::Repeat { steps, max_depth }])
            }
            Some(c) => Err(self.err(format!("unexpected {c:?}"))),
            None => Err(self.err("expected a step")),
        }
    }

    fn hop(&mut self) -> Result<Vec<Step>, ParseError> {
        let dir = if self.eat('-') {
            self.expect('>')?;
            Dir::Forward
        } else {
            self.expect('<')?;
            self.expect('-')?;
            Dir::Inverse
        };
        let at = self.pos;
        let name = self.ident()?;
        let model = self.store.model();
        if let Some(assoc) = model.assoc(&name) {
            let fanout = if self.eat('#') {
                Some(self.number()?)
            } else {
                None
            };
            let step = Step::Hop { dir, assoc, fanout };
            return Ok(vec![self.maybe_repeat(step)?]);
        }
        if let Some(def) = model.derived(&name) {
            if self.peek() == Some('#') {
                return Err(
                    self.err("fan-out bounds apply to plain associations, not derived ones")
                );
            }
            let steps = compile_rule(&def.rule, dir);
            if self.eat('*') {
                let max_depth = self.number()?;
                return Ok(vec![Step::Repeat { steps, max_depth }]);
            }
            return Ok(steps);
        }
        Err(ParseError {
            message: format!("unknown association {name:?}"),
            at,
        })
    }

    /// `*n` closure sugar after a hop or union group.
    fn maybe_repeat(&mut self, step: Step) -> Result<Step, ParseError> {
        if self.eat('*') {
            let max_depth = self.number()?;
            return Ok(Step::Repeat {
                steps: vec![step],
                max_depth,
            });
        }
        Ok(step)
    }

    fn filter(&mut self) -> Result<Vec<Step>, ParseError> {
        self.expect('[')?;
        self.skip_ws();
        let at = self.pos;
        let name = self.ident()?;
        let attr = self.store.model().attr(&name).ok_or_else(|| ParseError {
            message: format!("unknown attribute {name:?}"),
            at,
        })?;
        self.skip_ws();
        let filter = match self.peek() {
            Some('=') => {
                self.pos += 1;
                Filter::AttrEq(attr, self.value()?)
            }
            Some('~') => {
                self.pos += 1;
                Filter::AttrContains(attr, self.value()?)
            }
            Some('>') => {
                self.pos += 1;
                self.expect('=')?;
                self.skip_ws();
                Filter::Range {
                    attr,
                    min: Some(self.integer()?),
                    max: None,
                }
            }
            Some('<') => {
                self.pos += 1;
                self.expect('=')?;
                self.skip_ws();
                Filter::Range {
                    attr,
                    min: None,
                    max: Some(self.integer()?),
                }
            }
            Some('i') => {
                self.expect('i')?;
                self.expect('n')?;
                self.skip_ws();
                let min = if self.peek() == Some('.') {
                    None
                } else {
                    Some(self.integer()?)
                };
                self.expect('.')?;
                self.expect('.')?;
                let max = if matches!(self.peek(), Some(c) if c == '-' || c.is_ascii_digit()) {
                    Some(self.integer()?)
                } else {
                    None
                };
                Filter::Range { attr, min, max }
            }
            _ => return Err(self.err("expected '=', '~', '>=', '<=' or 'in'")),
        };
        self.skip_ws();
        self.expect(']')?;
        Ok(vec![Step::Filter(filter)])
    }
}

/// Inline a derived association's rule as engine steps. `Dir::Inverse`
/// traverses the rule backwards (each path reversed, hops flipped).
pub(crate) fn compile_rule(rule: &PathExpr, dir: Dir) -> Vec<Step> {
    match rule {
        PathExpr::Path(path) => {
            let hop = |s: &PathStep| match (s, dir) {
                (PathStep::Forward(a), Dir::Forward) | (PathStep::Inverse(a), Dir::Inverse) => {
                    Step::forward(*a)
                }
                (PathStep::Inverse(a), Dir::Forward) | (PathStep::Forward(a), Dir::Inverse) => {
                    Step::inverse(*a)
                }
            };
            match dir {
                Dir::Forward => path.iter().map(hop).collect(),
                Dir::Inverse => path.iter().rev().map(hop).collect(),
            }
        }
        PathExpr::Union(alts) => vec![Step::Union(
            alts.iter().map(|alt| compile_rule(alt, dir)).collect(),
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semex_extract::{bibtex::extract_bibtex, ExtractContext};
    use semex_store::{SourceInfo, SourceKind};

    fn store() -> Store {
        let mut st = Store::with_builtin_model();
        let src = st.register_source(SourceInfo::new("t", SourceKind::Synthetic));
        let mut ctx = ExtractContext::new(&mut st, src);
        extract_bibtex(
            "@inproceedings{a, title={Paper One}, author={Ann Walker and Bob Fisher}, booktitle={SIGMOD}, year=2004}",
            &mut ctx,
        )
        .unwrap();
        st
    }

    #[test]
    fn parses_the_motivating_query() {
        let st = store();
        let plan = parse(
            &st,
            r#"Person("Ann Walker") <-Sender [date in 1100..1200] ->Recipient ->CoAuthor <-AuthoredBy"#,
        )
        .unwrap();
        // Start + 3 plain hops + filter + the CoAuthor rule inlined.
        assert!(matches!(plan.start, Start::Labeled(..)));
        assert!(plan.steps.len() >= 4);
        // Canonical encoding is stable under re-parse... of rendered ids;
        // spacing and sugar normalize away.
        let c = plan.canonical(st.model());
        assert!(c.starts_with(
            "pathq1 Person(\"Ann Walker\") <-Sender [date in 1100..1200] ->Recipient"
        ));
    }

    #[test]
    fn parses_every_step_form() {
        let st = store();
        for text in [
            "*",
            "Publication",
            "o0",
            "* :Person",
            "Publication ->AuthoredBy#3",
            "Publication ->Cites*5",
            "Publication (->AuthoredBy|->PublishedIn)",
            "Publication (->Cites)*2",
            "Publication ?(->PublishedIn)",
            "Publication {->Cites}*4",
            "Publication [year>=2004] [year<=2005] [title~paper] [title=\"Paper One\"] [year in 2004..]",
            "Person ->CoAuthor",
            "Person <-CoAuthor",
        ] {
            parse(&st, text).unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }

    #[test]
    fn hops_use_forward_names_in_both_directions() {
        // `AuthorOf` is only a display label; both directions of the hop
        // use the association's forward name.
        let st = store();
        assert!(parse(&st, "Person <-AuthoredBy").is_ok());
        assert!(parse(&st, "Person <-AuthorOf").is_err());
    }

    #[test]
    fn rejects_unknowns_with_positions() {
        let st = store();
        for (text, needle) in [
            ("Bogus", "unknown class"),
            ("Person ->Bogus", "unknown association"),
            ("Person [bogus=1]", "unknown attribute"),
            ("Person :Bogus", "unknown class"),
            ("o999999", "no object"),
            ("Person ->AuthoredBy#0", "fan-out"),
            ("Person {->CoAuthor}*0", "repeat depth"),
            ("Person ->", "name"),
            ("Person [year in ..", "expected ']'"),
            ("", "start term"),
            ("Person )", "unexpected"),
        ] {
            let err = parse(&st, text).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{text}: got {:?}, wanted {needle:?}",
                err.message
            );
        }
    }
}
