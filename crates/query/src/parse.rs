//! Parser for the query language — text to [`SelectQuery`], with no KB
//! in sight: constants stay strings and resolve to term ids only at
//! plan time, so parsed queries (and the plan cache keyed on their
//! canonical form) are independent of any particular snapshot.
//!
//! ## Grammar
//!
//! ```text
//! query      := select | elements                  (bare form = SELECT * over the elements)
//! select     := SELECT [DISTINCT] proj WHERE '{' elements '}' modifier*
//! proj       := '*' | item+
//! item       := ?var | COUNT '(' ('*' | ?var) ')' [AS ?var]
//! elements   := element ( ['.'] element )*
//! element    := pattern
//!             | FILTER '(' operand cmp operand ')'
//!             | OPTIONAL '{' elements '}'
//!             | '{' elements '}' UNION '{' elements '}'
//! pattern    := term term term [ '@' timepoint ]
//! term       := ?var | constant
//! cmp        := '=' | '!=' | '<' | '<=' | '>' | '>='
//! modifier   := GROUP BY ?var+ | ORDER BY key+ | LIMIT n | OFFSET n
//! key        := ?var | ASC '(' ?var ')' | DESC '(' ?var ')'
//! timepoint  := YYYY[-MM[-DD]]
//! ```
//!
//! Keywords are case-insensitive and reserved (a constant cannot be
//! named `filter`). The bare form is the compact conjunctive syntax
//! (`?p bornIn ?c . ?c locatedIn ?n`). Groups nest at most
//! [`MAX_GROUP_DEPTH`] deep; deeper text is a parse error, not a stack
//! overflow.

use kb_store::TimePoint;

use crate::ast::{CmpOp, Condition, Group, OrderKey, Pattern, ProjItem, SelectQuery, Term};
use crate::error::QueryError;

/// Lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    /// `{`, `}`, `(`, `)`, `.` or `@`.
    Punct(char),
    /// A comparison operator.
    Op(CmpOp),
    /// `?name`.
    Var(String),
    /// Any other word (constant or keyword).
    Word(String),
}

impl Tok {
    fn describe(&self) -> String {
        match self {
            Tok::Punct(c) => format!("{c:?}"),
            Tok::Op(op) => format!("{:?}", op.symbol()),
            Tok::Var(v) => format!("?{v}"),
            Tok::Word(w) => format!("{w:?}"),
        }
    }
}

/// Characters that terminate a word.
fn is_reserved(c: char) -> bool {
    c.is_whitespace() || matches!(c, '{' | '}' | '(' | ')' | '.' | '@' | '<' | '>' | '=' | '!')
}

fn tokenize(text: &str) -> Result<Vec<Tok>, QueryError> {
    let mut toks = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if matches!(c, '{' | '}' | '(' | ')' | '.' | '@') {
            chars.next();
            toks.push(Tok::Punct(c));
        } else if matches!(c, '<' | '>' | '=' | '!') {
            chars.next();
            let eq = chars.peek() == Some(&'=');
            if eq {
                chars.next();
            }
            let op = match (c, eq) {
                ('=', false) => CmpOp::Eq,
                ('!', true) => CmpOp::Ne,
                ('<', false) => CmpOp::Lt,
                ('<', true) => CmpOp::Le,
                ('>', false) => CmpOp::Gt,
                ('>', true) => CmpOp::Ge,
                _ => return Err(QueryError::parse(toks.len(), format!("stray {c:?}"))),
            };
            toks.push(Tok::Op(op));
        } else if c == '?' {
            chars.next();
            let mut name = String::new();
            while let Some(&c) = chars.peek() {
                if is_reserved(c) || c == '?' {
                    break;
                }
                name.push(c);
                chars.next();
            }
            if name.is_empty() {
                return Err(QueryError::parse(toks.len(), "empty variable name"));
            }
            toks.push(Tok::Var(name));
        } else {
            let mut word = String::new();
            while let Some(&c) = chars.peek() {
                if is_reserved(c) || c == '?' {
                    break;
                }
                word.push(c);
                chars.next();
            }
            toks.push(Tok::Word(word));
        }
    }
    Ok(toks)
}

/// How deep `{ … }` groups may nest. The parser recurses once per
/// level and query text comes from outside the program (the CLI, the
/// service, router tenants on small worker stacks), so the depth is
/// bounded: an unoptimized build spends about 5 KB of stack a level,
/// and this many fit a 256 KB stack with room to spare. No
/// hand-written query comes near it.
pub(crate) const MAX_GROUP_DEPTH: usize = 32;

/// Recursive-descent parser over the token stream.
struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Groups currently open around `pos`.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> QueryError {
        QueryError::parse(self.pos, message)
    }

    /// Whether the next token is the (case-insensitive) keyword.
    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    /// Consumes the keyword if present.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, got {}", self.describe_next())))
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), QueryError> {
        match self.peek() {
            Some(Tok::Punct(p)) if *p == c => {
                self.pos += 1;
                Ok(())
            }
            _ => Err(self.err(format!("expected {c:?}, got {}", self.describe_next()))),
        }
    }

    fn describe_next(&self) -> String {
        self.peek().map_or_else(|| "end of query".into(), Tok::describe)
    }

    fn expect_var(&mut self) -> Result<String, QueryError> {
        match self.next() {
            Some(Tok::Var(v)) => Ok(v),
            other => Err(QueryError::parse(
                self.pos.saturating_sub(1),
                format!(
                    "expected a ?variable, got {}",
                    other.map_or_else(|| "end of query".into(), |t| t.describe())
                ),
            )),
        }
    }

    /// A pattern/filter operand: variable or constant word (keywords
    /// are reserved and rejected here).
    fn term(&mut self) -> Result<Term, QueryError> {
        match self.next() {
            Some(Tok::Var(v)) => Ok(Term::Var(v)),
            Some(Tok::Word(w)) => {
                if RESERVED.iter().any(|k| w.eq_ignore_ascii_case(k)) {
                    Err(QueryError::parse(
                        self.pos - 1,
                        format!("{w:?} is a reserved keyword, not a term"),
                    ))
                } else {
                    Ok(Term::Const(w))
                }
            }
            other => Err(QueryError::parse(
                self.pos.saturating_sub(1),
                format!(
                    "expected a term, got {}",
                    other.map_or_else(|| "end of query".into(), |t| t.describe())
                ),
            )),
        }
    }

    /// `{ elements }`: one nesting level down, refused beyond
    /// [`MAX_GROUP_DEPTH`].
    fn braced_group(&mut self) -> Result<Group, QueryError> {
        self.expect_punct('{')?;
        if self.depth >= MAX_GROUP_DEPTH {
            return Err(QueryError::parse(
                self.pos - 1,
                format!("'{{' nests groups deeper than {MAX_GROUP_DEPTH}"),
            ));
        }
        self.depth += 1;
        let group = self.group(true);
        self.depth -= 1;
        let group = group?;
        self.expect_punct('}')?;
        Ok(group)
    }

    /// Group elements until `}` (when `braced`) or end of input. The
    /// leaf elements parse in functions of their own so that this
    /// frame, the one nesting recurses through, stays small.
    fn group(&mut self, braced: bool) -> Result<Group, QueryError> {
        let mut group = Group::default();
        loop {
            // Optional `.` separators between elements.
            while matches!(self.peek(), Some(Tok::Punct('.'))) {
                self.pos += 1;
            }
            match self.peek() {
                None => break,
                Some(Tok::Punct('}')) if braced => break,
                Some(Tok::Punct('{')) => {
                    let a = self.braced_group()?;
                    self.expect_keyword("UNION")?;
                    group.unions.push((a, self.braced_group()?));
                }
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("FILTER") => {
                    self.pos += 1;
                    group.filters.push(self.filter()?);
                }
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("OPTIONAL") => {
                    self.pos += 1;
                    group.optionals.push(self.braced_group()?);
                }
                _ => group.patterns.push(self.pattern()?),
            }
        }
        if group.is_empty() {
            return Err(self.err("empty group pattern"));
        }
        Ok(group)
    }

    /// `( operand cmp operand )`, after the `FILTER` keyword.
    fn filter(&mut self) -> Result<Condition, QueryError> {
        self.expect_punct('(')?;
        let lhs = self.term()?;
        let op = match self.next() {
            Some(Tok::Op(op)) => op,
            other => {
                return Err(QueryError::parse(
                    self.pos.saturating_sub(1),
                    format!(
                        "expected a comparison operator, got {}",
                        other.map_or_else(|| "end of query".into(), |t| t.describe())
                    ),
                ))
            }
        };
        let rhs = self.term()?;
        self.expect_punct(')')?;
        Ok(Condition { lhs, op, rhs })
    }

    /// `term term term [@timepoint]`.
    fn pattern(&mut self) -> Result<Pattern, QueryError> {
        let s = self.term()?;
        let p = self.term()?;
        let o = self.term()?;
        let at = if matches!(self.peek(), Some(Tok::Punct('@'))) {
            self.pos += 1;
            match self.next() {
                Some(Tok::Word(w)) => Some(TimePoint::parse(&w).ok_or_else(|| {
                    QueryError::parse(
                        self.pos - 1,
                        format!("bad time point {w:?} (want YYYY[-MM[-DD]])"),
                    )
                })?),
                _ => {
                    return Err(self.err("expected a time point after '@'"));
                }
            }
        } else {
            None
        };
        Ok(Pattern { s, p, o, at })
    }

    fn projection(&mut self) -> Result<Option<Vec<ProjItem>>, QueryError> {
        if matches!(self.peek(), Some(Tok::Word(w)) if w == "*") {
            self.pos += 1;
            return Ok(None);
        }
        let mut items = Vec::new();
        loop {
            if self.at_keyword("WHERE") {
                break;
            }
            match self.peek() {
                Some(Tok::Var(_)) => {
                    let v = self.expect_var()?;
                    items.push(ProjItem::Var(v));
                }
                Some(Tok::Word(w)) if w.eq_ignore_ascii_case("COUNT") => {
                    self.pos += 1;
                    self.expect_punct('(')?;
                    let arg = match self.peek() {
                        Some(Tok::Word(w)) if w == "*" => {
                            self.pos += 1;
                            None
                        }
                        _ => Some(self.expect_var()?),
                    };
                    self.expect_punct(')')?;
                    let alias = if self.eat_keyword("AS") {
                        self.expect_var()?
                    } else {
                        // Default alias: `?n` for COUNT(*), `?n_x` for COUNT(?x).
                        match &arg {
                            None => "n".to_string(),
                            Some(a) => format!("n_{a}"),
                        }
                    };
                    items.push(ProjItem::Count { arg, alias });
                }
                _ => {
                    return Err(self.err(format!(
                        "expected a projection item or WHERE, got {}",
                        self.describe_next()
                    )))
                }
            }
        }
        if items.is_empty() {
            return Err(self.err("empty projection"));
        }
        Ok(Some(items))
    }

    fn number(&mut self) -> Result<usize, QueryError> {
        match self.next() {
            Some(Tok::Word(w)) => w.parse().map_err(|_| {
                QueryError::parse(self.pos - 1, format!("expected a number, got {w:?}"))
            }),
            other => Err(QueryError::parse(
                self.pos.saturating_sub(1),
                format!(
                    "expected a number, got {}",
                    other.map_or_else(|| "end of query".into(), |t| t.describe())
                ),
            )),
        }
    }

    fn modifiers(&mut self, q: &mut SelectQuery) -> Result<(), QueryError> {
        loop {
            if self.eat_keyword("GROUP") {
                self.expect_keyword("BY")?;
                q.group_by.push(self.expect_var()?);
                while matches!(self.peek(), Some(Tok::Var(_))) {
                    q.group_by.push(self.expect_var()?);
                }
            } else if self.eat_keyword("ORDER") {
                self.expect_keyword("BY")?;
                loop {
                    match self.peek() {
                        Some(Tok::Var(_)) => {
                            q.order_by.push(OrderKey { var: self.expect_var()?, desc: false });
                        }
                        Some(Tok::Word(w))
                            if w.eq_ignore_ascii_case("ASC") || w.eq_ignore_ascii_case("DESC") =>
                        {
                            let desc = w.eq_ignore_ascii_case("DESC");
                            self.pos += 1;
                            self.expect_punct('(')?;
                            let var = self.expect_var()?;
                            self.expect_punct(')')?;
                            q.order_by.push(OrderKey { var, desc });
                        }
                        _ => break,
                    }
                }
                if q.order_by.is_empty() {
                    return Err(self.err("ORDER BY needs at least one key"));
                }
            } else if self.eat_keyword("LIMIT") {
                q.limit = Some(self.number()?);
            } else if self.eat_keyword("OFFSET") {
                q.offset = self.number()?;
            } else {
                break;
            }
        }
        Ok(())
    }
}

/// Reserved keywords (rejected as bare constants).
const RESERVED: &[&str] = &[
    "SELECT", "DISTINCT", "WHERE", "FILTER", "OPTIONAL", "UNION", "GROUP", "ORDER", "BY", "ASC",
    "DESC", "LIMIT", "OFFSET", "COUNT", "AS",
];

/// Parses query text: either a full `SELECT` form or the bare
/// conjunctive form, which desugars to `SELECT *` with no modifiers.
pub fn parse(text: &str) -> Result<SelectQuery, QueryError> {
    let toks = tokenize(text)?;
    if toks.is_empty() {
        return Err(QueryError::parse(0, "empty query"));
    }
    let mut p = Parser { toks, pos: 0, depth: 0 };
    let query = if p.at_keyword("SELECT") {
        p.pos += 1;
        let distinct = p.eat_keyword("DISTINCT");
        let projection = p.projection()?;
        p.expect_keyword("WHERE")?;
        let group = p.braced_group()?;
        let mut q = SelectQuery { distinct, projection, ..SelectQuery::star(Group::default()) };
        q.group = group;
        p.modifiers(&mut q)?;
        q
    } else {
        // The body of `SELECT * WHERE { … }`, and as deep as one: its
        // canonical text must parse again.
        p.depth = 1;
        SelectQuery::star(p.group(false)?)
    };
    if p.pos < p.toks.len() {
        return Err(p.err(format!("trailing input: {}", p.describe_next())));
    }
    Ok(query)
}

/// Parses and re-renders the query in canonical form — the cache key of
/// the serving layer, so spelling variants share plans and results.
pub fn normalize(text: &str) -> Result<String, QueryError> {
    Ok(parse(text)?.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_form_is_select_star() {
        let q = parse("?p bornIn ?c . ?c locatedIn Norland").unwrap();
        assert!(q.projection.is_none());
        assert_eq!(q.group.patterns.len(), 2);
        assert_eq!(q.group.patterns[1].o, Term::Const("Norland".into()));
    }

    #[test]
    fn select_with_modifiers_round_trips() {
        let text = "SELECT DISTINCT ?p COUNT(?c) AS ?n WHERE { ?p bornIn ?c . \
                    FILTER(?p != ?c) } GROUP BY ?p ORDER BY DESC(?n) LIMIT 10 OFFSET 2";
        let q = parse(text).unwrap();
        assert_eq!(q.to_string(), text);
        let again = parse(&q.to_string()).unwrap();
        assert_eq!(q, again);
    }

    #[test]
    fn optional_union_and_at_parse() {
        let text = "SELECT * WHERE { ?p worksAt ?co @1999 . { ?p bornIn ?c } UNION \
                    { ?p citizenOf ?c } . OPTIONAL { ?p marriedTo ?q } }";
        let q = parse(text).unwrap();
        assert_eq!(q.group.patterns.len(), 1);
        assert!(q.group.patterns[0].at.is_some());
        assert_eq!(q.group.unions.len(), 1);
        assert_eq!(q.group.optionals.len(), 1);
        assert_eq!(parse(&q.to_string()).unwrap(), q);
    }

    #[test]
    fn keywords_are_case_insensitive_and_normalize() {
        let a = normalize("select ?x where { ?x bornIn ?y } limit 5").unwrap();
        let b = normalize("SELECT ?x  WHERE  {?x bornIn ?y} LIMIT 5").unwrap();
        assert_eq!(a, b);
        assert_eq!(a, "SELECT ?x WHERE { ?x bornIn ?y } LIMIT 5");
    }

    #[test]
    fn errors_are_structured() {
        assert!(parse("").is_err());
        assert!(parse("one two").is_err());
        assert!(parse("SELECT WHERE { ?a ?b ?c }").is_err());
        assert!(parse("?a FILTER ?c").is_err());
        assert!(parse("SELECT * WHERE { ?a r ?b } LIMIT banana").is_err());
        assert!(parse("?a r ?b extra_token_tail ?x ?y . junk").is_err());
        assert!(parse("?a r ?b @notadate").is_err());
        let err = parse("?p bornIn ?").unwrap_err();
        assert!(matches!(err, QueryError::Parse { .. }));
    }

    /// Runs on a 256 KB stack: unbounded recursion dies there long
    /// before 100 000 levels, whatever the main thread would survive.
    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let worker = std::thread::Builder::new().stack_size(256 * 1024).spawn(|| {
            let nested =
                |n: usize| format!("SELECT * WHERE {{ {}?a r ?b{}", "{ ".repeat(n), " }".repeat(n));
            let hostile = format!("SELECT * WHERE {{ {}", "{ ".repeat(100_000));
            let err = parse(&hostile).unwrap_err();
            let QueryError::Parse { token, message } = &err else { panic!("{err:?}") };
            // `SELECT * WHERE` then the allowed braces are fine; the next is not.
            assert_eq!(*token, 3 + MAX_GROUP_DEPTH, "{message}");
            assert!(message.contains("'{'") && message.contains("deeper"), "{message}");
            assert_eq!(parse(&nested(MAX_GROUP_DEPTH)).unwrap_err(), err);
            // One level less gets as far as missing its UNION.
            let err = parse(&nested(MAX_GROUP_DEPTH - 1)).unwrap_err();
            assert!(err.to_string().contains("expected UNION"), "{err}");
            // The bare form counts as the braces its canonical text has.
            let optionals =
                |n: usize| format!("?a r ?b {}?a r ?b{}", "OPTIONAL { ".repeat(n), " }".repeat(n));
            assert!(parse(&optionals(MAX_GROUP_DEPTH)).is_err());
            let deep_optional = optionals(MAX_GROUP_DEPTH - 1);
            let q = parse(&deep_optional).expect("the deepest legal nesting parses");
            assert_eq!(parse(&q.to_string()).unwrap(), q);
        });
        worker.expect("spawns").join().expect("the parser neither overflowed nor panicked");
    }

    #[test]
    fn count_gets_default_alias() {
        let q = parse("SELECT COUNT(*) WHERE { ?a ?r ?b }").unwrap();
        let Some(items) = &q.projection else { panic!() };
        assert_eq!(items[0], ProjItem::Count { arg: None, alias: "n".into() });
        let q = parse("SELECT COUNT(?a) WHERE { ?a ?r ?b }").unwrap();
        let Some(items) = &q.projection else { panic!() };
        assert_eq!(items[0], ProjItem::Count { arg: Some("a".into()), alias: "n_a".into() });
    }
}
