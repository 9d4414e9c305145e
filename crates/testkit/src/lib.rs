//! `kb-testkit`: the one reference model every conformance suite
//! compares a production configuration against, in [`gen`] the one
//! generator of the KBs, queries and workloads it compares them on, and
//! in [`stack`] the one runner that replays a workload into the
//! reference and every configuration at once.
//!
//! Deliberately naive, so that it is obviously right: [`RefKb`] is an
//! ordered map of string triples answered by filtering the whole map,
//! and [`eval`] evaluates a parsed query straight from its syntax tree
//! by nested loops over that map — no dictionary, no term ids, no
//! index, no plan, no statistics. It shares nothing with the engine it
//! judges but the syntax tree and the store's value types.
//!
//! ## The write contract, restated
//!
//! Every configuration of the store — one builder, its snapshot, a
//! delta stack, its compaction, a store reopened from sealed deltas and
//! its WAL — answers alike. Evidence for a live triple merges:
//! confidence by noisy-or (`1 - (1-a)(1-b)`), the span if none was
//! known yet, the earlier source. A retraction forgets: asserting the
//! triple again starts it fresh, with the new confidence, span and
//! source. A fact of confidence zero is a retraction. So [`RefKb`]
//! needs to hold the live triples only.
//!
//! ## Query semantics, restated
//!
//! A *solution* maps variable names to term strings. A group is
//! evaluated once per solution of what precedes it and sees that
//! solution's bindings. Its triple patterns extend the solution by
//! every live triple that agrees with it, one extension per triple (a
//! bag). Then each `{ a } UNION { b }` replaces a solution by what `a`
//! finds followed by what `b` finds, duplicates kept; each
//! `OPTIONAL { g }` by what `g` finds, or leaves it as it is when `g`
//! finds nothing; and the group's `FILTER`s drop solutions. For
//! well-designed patterns that is the algebra of Hogan et al.,
//! "Knowledge Graphs": join, bag union, left outer join, selection.
//!
//! A `FILTER` over an unbound variable holds for no solution; `=` and
//! `!=` compare term strings, the ordered comparisons and `ORDER BY`
//! use [`value_order`]. A pattern `@point` admits triples without a
//! span and triples whose span contains the point. `COUNT` forms one
//! group per distinct `GROUP BY` key among the solutions (no solutions,
//! no rows); `COUNT(*)` counts a group's solutions, `COUNT(?x)` those
//! that bind `?x`. Then `DISTINCT`, `ORDER BY` (unbound last),
//! `OFFSET`, `LIMIT`, in that order.

pub mod gen;
pub mod stack;

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};

use kb_query::{
    Cell, CellValue, CmpOp, Condition, Group, Pattern, ProjItem, QueryOutput, SelectQuery, Term,
};
use kb_store::{KbRead, TimePoint, TimeSpan};

/// A triple of term strings: subject, predicate, object.
pub type StrTriple = (String, String, String);

/// A triple pattern over strings; `None` leaves the position free.
pub type StrPattern<'a> = [Option<&'a str>; 3];

/// What the reference holds for a live triple.
#[derive(Debug, Clone, PartialEq)]
pub struct RefFact {
    /// Confidence in `(0, 1]`.
    pub confidence: f64,
    /// Time span, if one is known.
    pub span: Option<TimeSpan>,
    /// Provenance source, by name.
    pub source: String,
}

/// The reference knowledge base: the live triples, ordered by their
/// strings, each with its confidence, span and source, written under
/// the contract restated in the module docs.
#[derive(Debug, Clone, Default)]
pub struct RefKb {
    entries: BTreeMap<StrTriple, RefFact>,
}

fn key(s: &str, p: &str, o: &str) -> StrTriple {
    (s.to_string(), p.to_string(), o.to_string())
}

fn agrees(pat: &StrPattern, (s, p, o): &StrTriple) -> bool {
    pat[0].is_none_or(|x| x == s) && pat[1].is_none_or(|x| x == p) && pat[2].is_none_or(|x| x == o)
}

impl RefKb {
    /// Asserts a triple at confidence 1 from the source `asserted`.
    pub fn assert(&mut self, s: &str, p: &str, o: &str, span: Option<TimeSpan>) {
        self.add(s, p, o, RefFact { confidence: 1.0, span, source: "asserted".into() });
    }

    /// Adds evidence for a triple under the write contract.
    pub fn add(&mut self, s: &str, p: &str, o: &str, fact: RefFact) {
        if fact.confidence == 0.0 {
            self.retract(s, p, o);
            return;
        }
        match self.entries.get_mut(&key(s, p, o)) {
            Some(known) => {
                known.confidence = 1.0 - (1.0 - known.confidence) * (1.0 - fact.confidence);
                known.span = known.span.or(fact.span);
            }
            None => {
                self.entries.insert(key(s, p, o), fact);
            }
        }
    }

    /// Retracts a triple; returns whether it was live.
    pub fn retract(&mut self, s: &str, p: &str, o: &str) -> bool {
        self.entries.remove(&key(s, p, o)).is_some()
    }

    /// A live triple's fact.
    pub fn fact(&self, s: &str, p: &str, o: &str) -> Option<&RefFact> {
        self.entries.get(&key(s, p, o))
    }

    /// The live triples with their facts, in string order.
    pub fn facts(&self) -> impl Iterator<Item = (&StrTriple, &RefFact)> + '_ {
        self.entries.iter()
    }

    /// The live triples that agree with `pat`, in string order.
    pub fn matching(&self, pat: StrPattern) -> Vec<&StrTriple> {
        self.entries.keys().filter(|t| agrees(&pat, t)).collect()
    }

    /// The live triples that agree with `pat` and hold at `point`:
    /// those without a span, and those whose span contains it.
    pub fn matching_at(&self, pat: StrPattern, point: &TimePoint) -> Vec<&StrTriple> {
        let holds = |f: &RefFact| f.span.is_none_or(|sp| sp.contains(point));
        self.facts().filter(|(t, f)| agrees(&pat, t) && holds(f)).map(|(t, _)| t).collect()
    }

    /// Live triples with `t` as subject plus those with `t` as object.
    pub fn degree(&self, t: &str) -> usize {
        self.matching([Some(t), None, None]).len() + self.matching([None, None, Some(t)]).len()
    }

    /// The other end of every live triple touching `t`, without `t`.
    pub fn neighbors(&self, t: &str) -> BTreeSet<String> {
        let mut out: BTreeSet<String> =
            self.matching([Some(t), None, None]).into_iter().map(|(_, _, o)| o.clone()).collect();
        out.extend(self.matching([None, None, Some(t)]).into_iter().map(|(s, _, _)| s.clone()));
        out.remove(t);
        out
    }
}

/// One value of a reference answer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum RefCell {
    /// A term, by its string.
    Term(String),
    /// An aggregate count.
    Count(u64),
    /// A variable the solution leaves unbound.
    Unbound,
}

/// A reference answer: column names and rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefOutput {
    /// Column names in projection order, without `?`.
    pub cols: Vec<String>,
    /// The rows.
    pub rows: Vec<Vec<RefCell>>,
}

/// The order of `FILTER` comparisons and `ORDER BY`: two time points
/// (`YYYY[-MM[-DD]]`) compare by date, else two integers by value, else
/// the strings byte-wise.
pub fn value_order(a: &str, b: &str) -> Ordering {
    if let (Some(x), Some(y)) = (TimePoint::parse(a), TimePoint::parse(b)) {
        return (x.year, x.month, x.day).cmp(&(y.year, y.month, y.day));
    }
    if let (Ok(x), Ok(y)) = (a.parse::<i64>(), b.parse::<i64>()) {
        return x.cmp(&y);
    }
    a.cmp(b)
}

/// Orders two cells of one column; an unbound cell sorts last.
fn cell_order(a: &RefCell, b: &RefCell) -> Ordering {
    match (a, b) {
        (RefCell::Term(x), RefCell::Term(y)) => value_order(x, y),
        (RefCell::Count(x), RefCell::Count(y)) => x.cmp(y),
        // A column holds terms or counts, never both; only bound
        // against unbound is left to decide.
        _ => (*a == RefCell::Unbound).cmp(&(*b == RefCell::Unbound)),
    }
}

/// Compares two rows under `ORDER BY` keys given as (column, descending).
fn key_order(keys: &[(usize, bool)], a: &[RefCell], b: &[RefCell]) -> Ordering {
    for &(col, desc) in keys {
        let ord = cell_order(&a[col], &b[col]);
        if ord != Ordering::Equal {
            return if desc { ord.reverse() } else { ord };
        }
    }
    Ordering::Equal
}

/// The `ORDER BY` keys of `query` as (column, descending) pairs.
fn order_keys(query: &SelectQuery, cols: &[String]) -> Result<Vec<(usize, bool)>, String> {
    let key = |k: &kb_query::OrderKey| match cols.iter().position(|c| *c == k.var) {
        Some(col) => Ok((col, k.desc)),
        None => Err(format!("ORDER BY ?{} is not projected", k.var)),
    };
    query.order_by.iter().map(key).collect()
}

/// Variable name → term, both borrowed from the query and the KB.
type Solution<'a> = BTreeMap<&'a str, &'a str>;

/// The solution extended by one triple under one pattern, if they agree.
fn extend<'a>(
    sol: &Solution<'a>,
    pat: &'a Pattern,
    (s, p, o): &'a StrTriple,
    span: Option<TimeSpan>,
) -> Option<Solution<'a>> {
    if let (Some(point), Some(span)) = (&pat.at, span) {
        if !span.contains(point) {
            return None;
        }
    }
    let mut out = sol.clone();
    for (term, value) in [(&pat.s, s), (&pat.p, p), (&pat.o, o)] {
        // A constant, or what the variable is bound to — this value,
        // if it was not bound yet — must be the triple's component.
        let required: &str = match term {
            Term::Const(c) => c,
            Term::Var(v) => out.entry(v).or_insert(value),
        };
        if required != value {
            return None;
        }
    }
    Some(out)
}

fn value_of<'a>(t: &'a Term, sol: &Solution<'a>) -> Option<&'a str> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => sol.get(v.as_str()).copied(),
    }
}

fn holds(c: &Condition, sol: &Solution) -> bool {
    let (Some(l), Some(r)) = (value_of(&c.lhs, sol), value_of(&c.rhs, sol)) else { return false };
    match c.op {
        CmpOp::Eq => l == r,
        CmpOp::Ne => l != r,
        CmpOp::Lt => value_order(l, r) == Ordering::Less,
        CmpOp::Le => value_order(l, r) != Ordering::Greater,
        CmpOp::Gt => value_order(l, r) == Ordering::Greater,
        CmpOp::Ge => value_order(l, r) != Ordering::Less,
    }
}

/// The solutions of a group evaluated under one solution of its context.
fn eval_group<'a>(g: &'a Group, kb: &'a RefKb, context: Solution<'a>) -> Vec<Solution<'a>> {
    let mut sols = vec![context];
    for pat in &g.patterns {
        sols = sols
            .iter()
            .flat_map(|sol| kb.facts().filter_map(move |(t, f)| extend(sol, pat, t, f.span)))
            .collect();
    }
    for (a, b) in &g.unions {
        sols = sols
            .into_iter()
            .flat_map(|sol| [a, b].into_iter().flat_map(move |g| eval_group(g, kb, sol.clone())))
            .collect();
    }
    for opt in &g.optionals {
        sols = sols
            .into_iter()
            .flat_map(|sol| {
                let found = eval_group(opt, kb, sol.clone());
                if found.is_empty() {
                    vec![sol]
                } else {
                    found
                }
            })
            .collect();
    }
    sols.retain(|sol| g.filters.iter().all(|c| holds(c, sol)));
    sols
}

fn group_vars(g: &Group, out: &mut BTreeSet<String>) {
    for pat in &g.patterns {
        out.extend([&pat.s, &pat.p, &pat.o].into_iter().filter_map(Term::as_var).map(String::from));
    }
    for (a, b) in &g.unions {
        group_vars(a, out);
        group_vars(b, out);
    }
    for opt in &g.optionals {
        group_vars(opt, out);
    }
}

fn cell_of(sol: &Solution, var: &str) -> RefCell {
    sol.get(var).map_or(RefCell::Unbound, |t| RefCell::Term(t.to_string()))
}

/// Evaluates `query` over `kb`. `Err` names the rule an ill-formed
/// query breaks: aggregation needs an explicit projection whose plain
/// variables are all `GROUP BY` keys, and `ORDER BY` keys must be
/// projected columns.
pub fn eval(query: &SelectQuery, kb: &RefKb) -> Result<RefOutput, String> {
    let items: Vec<ProjItem> = match &query.projection {
        Some(items) => items.clone(),
        None if query.is_aggregate() => return Err("GROUP BY without a projection".into()),
        None => {
            let mut vars = BTreeSet::new();
            group_vars(&query.group, &mut vars);
            vars.into_iter().map(ProjItem::Var).collect()
        }
    };
    let cols: Vec<String> = items
        .iter()
        .map(|item| match item {
            ProjItem::Var(v) => v.clone(),
            ProjItem::Count { alias, .. } => alias.clone(),
        })
        .collect();
    let keys = order_keys(query, &cols)?;
    let stray = |i: &&ProjItem| matches!(i, ProjItem::Var(v) if !query.group_by.contains(v));
    if let Some(item) = items.iter().find(stray).filter(|_| query.is_aggregate()) {
        return Err(format!("{item} is projected but not a GROUP BY key"));
    }

    let sols = eval_group(&query.group, kb, Solution::new());
    let mut rows: Vec<Vec<RefCell>> = if query.is_aggregate() {
        let mut groups: BTreeMap<Vec<RefCell>, Vec<&Solution>> = BTreeMap::new();
        for sol in &sols {
            let key = query.group_by.iter().map(|v| cell_of(sol, v)).collect();
            groups.entry(key).or_default().push(sol);
        }
        let count = |members: &[&Solution], arg: &Option<String>| {
            members.iter().filter(|m| arg.as_deref().is_none_or(|a| m.contains_key(a))).count()
        };
        groups
            .values()
            .map(|members| {
                items
                    .iter()
                    .map(|item| match item {
                        ProjItem::Var(v) => cell_of(members[0], v),
                        ProjItem::Count { arg, .. } => RefCell::Count(count(members, arg) as u64),
                    })
                    .collect()
            })
            .collect()
    } else {
        sols.iter().map(|sol| cols.iter().map(|c| cell_of(sol, c)).collect()).collect()
    };

    if query.distinct {
        let mut seen = BTreeSet::new();
        rows.retain(|row| seen.insert(row.clone()));
    }
    rows.sort_by(|a, b| key_order(&keys, a, b));
    let rows =
        rows.into_iter().skip(query.offset).take(query.limit.unwrap_or(usize::MAX)).collect();
    Ok(RefOutput { cols, rows })
}

/// Panics unless `got` — a production answer to `query` over `view` —
/// conforms to the reference answer over `kb`.
///
/// The rule: equal columns; as many rows as the reference's window
/// (the whole answer when the query has no `OFFSET`/`LIMIT`); every row
/// drawn from the reference's unwindowed answer without reuse; and at
/// each position the `ORDER BY` keys the reference's window has there.
/// Without a window that makes the two answers equal as multisets, and
/// under `ORDER BY` it makes the production rows sorted; with one,
/// which of several tied rows fall inside is left to the engine.
pub fn assert_conforms(query: &SelectQuery, got: &QueryOutput, view: &dyn KbRead, kb: &RefKb) {
    let open = SelectQuery { limit: None, offset: 0, ..query.clone() };
    let full = eval(&open, kb).unwrap_or_else(|e| panic!("the reference rejects `{query}`: {e}"));
    assert_eq!(got.cols, full.cols, "columns of `{query}`");
    let cell = |cell: &Cell| match cell.value() {
        CellValue::Term(id) => RefCell::Term(
            view.resolve(id).unwrap_or_else(|| panic!("`{query}` answered unknown {id:?}")).into(),
        ),
        CellValue::Count(n) => RefCell::Count(n),
        CellValue::Unbound => RefCell::Unbound,
    };
    let rows: Vec<Vec<RefCell>> = got.rows.iter().map(|r| r.iter().map(cell).collect()).collect();
    let keys = order_keys(query, &full.cols).expect("eval resolved the same keys");
    let window: Vec<&Vec<RefCell>> =
        full.rows.iter().skip(query.offset).take(query.limit.unwrap_or(usize::MAX)).collect();
    assert_eq!(rows.len(), window.len(), "row count of `{query}`: {rows:?} against {window:?}");
    let mut pool: Vec<&Vec<RefCell>> = full.rows.iter().collect();
    for (row, want) in rows.iter().zip(window) {
        match pool.iter().position(|r| *r == row) {
            Some(i) => pool.swap_remove(i),
            None => panic!("`{query}` returned {row:?} more often than the reference: {full:?}"),
        };
        assert_eq!(
            key_order(&keys, row, want),
            Ordering::Equal,
            "`{query}` returned {row:?} where the reference has {want:?}"
        );
    }
}

/// Panics unless the live facts of `view` are those of `kb`, each with
/// its confidence (bit for bit), span and source name.
pub fn assert_facts_conform(view: &dyn KbRead, kb: &RefKb) {
    let name = |id| view.resolve(id).expect("a fact's terms resolve").to_string();
    let mut got: Vec<(StrTriple, RefFact)> = view
        .facts()
        .map(|f| {
            let source = view.source_name(f.source).expect("a fact's source resolves").into();
            let fact = RefFact { confidence: f.confidence, span: f.span, source };
            ((name(f.triple.s), name(f.triple.p), name(f.triple.o)), fact)
        })
        .collect();
    got.sort_by(|a, b| a.0.cmp(&b.0));
    let want: Vec<(StrTriple, RefFact)> = kb.facts().map(|(t, f)| (t.clone(), f.clone())).collect();
    assert_eq!(got, want, "live facts");
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_query::{parse, Rows};
    use kb_store::KbBuilder;

    const TRIPLES: [(&str, &str, &str); 8] = [
        ("a", "knows", "b"),
        ("a", "knows", "c"),
        ("b", "knows", "c"),
        ("c", "likes", "a"),
        ("d", "likes", "a"),
        ("a", "age", "30"),
        ("b", "age", "7"),
        ("c", "age", "30"),
    ];

    /// The sample KB; `c likes a` holds over [1990, 2000] only.
    fn sample() -> RefKb {
        let mut kb = RefKb::default();
        for (s, p, o) in TRIPLES {
            let span = (s, p) == ("c", "likes");
            kb.assert(s, p, o, span.then(|| TimeSpan::parse("[1990,2000]").unwrap()));
        }
        kb
    }

    /// Rows of the reference answer, cells rendered `term`, `#count`, `_`.
    fn answer(kb: &RefKb, text: &str) -> Vec<Vec<String>> {
        let out = eval(&parse(text).unwrap(), kb).unwrap();
        out.rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|c| match c {
                        RefCell::Term(t) => t.clone(),
                        RefCell::Count(n) => format!("#{n}"),
                        RefCell::Unbound => "_".to_string(),
                    })
                    .collect()
            })
            .collect()
    }

    fn rows(expect: &[&[&str]]) -> Vec<Vec<String>> {
        expect.iter().map(|r| r.iter().map(|c| c.to_string()).collect()).collect()
    }

    #[test]
    fn refkb_replays_the_write_contract() {
        let mut kb = RefKb::default();
        let y = |year| Some(TimeSpan::at(TimePoint::year(year)));
        let fact =
            |confidence, span, source: &str| RefFact { confidence, span, source: source.into() };
        assert!(!kb.retract("a", "r", "b"), "unknown triple");
        kb.add("a", "r", "b", fact(0.5, None, "x"));
        kb.add("a", "r", "b", fact(0.5, y(1990), "y"));
        kb.add("a", "r", "b", fact(0.5, y(2000), "z"));
        assert_eq!(kb.fact("a", "r", "b"), Some(&fact(0.875, y(1990), "x")), "merged");
        assert!(kb.retract("a", "r", "b"));
        assert!(!kb.retract("a", "r", "b"), "already hidden");
        assert_eq!(kb.facts().count(), 0);
        kb.add("a", "r", "b", fact(0.5, y(1950), "w"));
        assert_eq!(kb.fact("a", "r", "b"), Some(&fact(0.5, y(1950), "w")), "starts fresh");
        kb.add("a", "r", "b", fact(0.0, None, "x"));
        assert_eq!(kb.fact("a", "r", "b"), None, "zero confidence retracts");
        kb.assert("a", "r", "b", None);
        assert_eq!(kb.fact("a", "r", "b"), Some(&fact(1.0, None, "asserted")));
    }

    #[test]
    fn refkb_reads_filter_the_whole_set() {
        let kb = sample();
        let count = |pat| kb.matching(pat).len();
        assert_eq!(count([None, None, None]), 8);
        assert_eq!(count([Some("a"), None, None]), 3);
        assert_eq!(count([None, Some("knows"), Some("c")]), 2);
        assert_eq!(count([Some("a"), None, Some("c")]), 1);
        assert_eq!(count([Some("a"), Some("knows"), Some("d")]), 0);
        let first = kb.matching([None, Some("likes"), None])[0];
        assert_eq!(first, &("c".to_string(), "likes".to_string(), "a".to_string()));
        let at = |year| kb.matching_at([None, Some("likes"), None], &TimePoint::year(year)).len();
        assert_eq!((at(1995), at(2005)), (2, 1), "an unspanned triple holds at any time");
        assert_eq!(kb.degree("a"), 3 + 2);
        assert_eq!(kb.neighbors("a"), ["30", "b", "c", "d"].map(String::from).into());
        let mut looped = RefKb::default();
        looped.assert("x", "r", "x", None);
        assert_eq!(looped.degree("x"), 2, "a loop counts at both ends");
        assert!(looped.neighbors("x").is_empty());
    }

    #[test]
    fn basic_graph_patterns_join_and_repeat() {
        let kb = sample();
        assert_eq!(answer(&kb, "?x knows ?y . ?y knows ?z"), rows(&[&["a", "b", "c"]]));
        assert_eq!(answer(&kb, "?x knows ?y . ?x age 7"), rows(&[&["b", "c"]]));
        assert_eq!(answer(&kb, "?x knows ?x"), rows(&[]));
        assert_eq!(answer(&kb, "?x knows nobody"), rows(&[]));
        assert_eq!(answer(&kb, "SELECT ?q WHERE { b knows ?y }"), rows(&[&["_"]]));
    }

    #[test]
    fn optional_keeps_an_unmatched_left_row() {
        let kb = sample();
        assert_eq!(
            answer(&kb, "SELECT ?x ?z WHERE { ?x knows ?y OPTIONAL { ?y likes ?z } }"),
            rows(&[&["a", "_"], &["a", "a"], &["b", "a"]]),
            "b likes nobody, so `a knows b` survives with ?z unbound"
        );
    }

    #[test]
    fn union_keeps_duplicates() {
        let kb = sample();
        assert_eq!(
            answer(&kb, "SELECT ?x WHERE { { ?x knows c } UNION { ?x knows ?y } }"),
            rows(&[&["a"], &["b"], &["a"], &["a"], &["b"]])
        );
        assert_eq!(
            answer(&kb, "SELECT DISTINCT ?x WHERE { { ?x knows c } UNION { ?x knows ?y } }"),
            rows(&[&["a"], &["b"]])
        );
    }

    #[test]
    fn count_star_counts_rows_and_count_var_counts_bound() {
        let kb = sample();
        assert_eq!(
            answer(
                &kb,
                "SELECT ?x COUNT(*) AS ?all COUNT(?z) AS ?some \
                 WHERE { ?x knows ?y OPTIONAL { ?y likes ?z } } GROUP BY ?x"
            ),
            rows(&[&["a", "#2", "#1"], &["b", "#1", "#1"]])
        );
        assert_eq!(answer(&kb, "SELECT COUNT(*) AS ?n WHERE { ?x knows ?y }"), rows(&[&["#3"]]));
        assert_eq!(
            answer(&kb, "SELECT COUNT(*) AS ?n WHERE { ?x knows nobody }"),
            rows(&[]),
            "no solutions, no group"
        );
    }

    #[test]
    fn time_restricted_patterns_admit_unspanned_facts() {
        let kb = sample();
        assert_eq!(answer(&kb, "?x likes a @1995"), rows(&[&["c"], &["d"]]));
        assert_eq!(answer(&kb, "?x likes a @2005"), rows(&[&["d"]]));
        assert_eq!(answer(&kb, "?x likes a @1989-12"), rows(&[&["d"]]));
    }

    #[test]
    fn order_by_sorts_by_value_stably_then_windows() {
        let kb = sample();
        let by_age = "SELECT ?x ?n WHERE { ?x age ?n } ORDER BY DESC(?n)";
        assert_eq!(
            answer(&kb, by_age),
            rows(&[&["a", "30"], &["c", "30"], &["b", "7"]]),
            "7 < 30 as values; the tie keeps a before c"
        );
        assert_eq!(answer(&kb, &format!("{by_age} LIMIT 1 OFFSET 1")), rows(&[&["c", "30"]]));
        assert_eq!(answer(&kb, &format!("{by_age} OFFSET 3")), rows(&[]));
        assert_eq!(answer(&kb, &format!("{by_age} OFFSET 10")), rows(&[]));
        assert_eq!(answer(&kb, &format!("{by_age} LIMIT 0")), rows(&[]));
        assert_eq!(
            answer(&kb, "SELECT ?y ?z WHERE { ?x knows ?y OPTIONAL { ?y likes ?z } } ORDER BY ?z"),
            rows(&[&["c", "a"], &["c", "a"], &["b", "_"]]),
            "unbound sorts last"
        );
    }

    #[test]
    fn filters_compare_values_and_fail_on_unbound() {
        let kb = sample();
        assert_eq!(answer(&kb, "SELECT ?x WHERE { ?x age ?n . FILTER(?n > 7) }").len(), 2);
        assert_eq!(answer(&kb, "SELECT ?x WHERE { ?x age ?n . FILTER(?n <= 7) }"), rows(&[&["b"]]));
        assert_eq!(answer(&kb, "SELECT ?x WHERE { ?x age ?n . FILTER(?x != b) }").len(), 2);
        assert_eq!(answer(&kb, "SELECT ?x WHERE { ?x age ?n . FILTER(?x = nobody) }").len(), 0);
        assert_eq!(answer(&kb, "SELECT ?x WHERE { ?x age ?n . FILTER(zzz = zzz) }").len(), 3);
        assert_eq!(answer(&kb, "SELECT ?x WHERE { ?x age ?n . FILTER(zzz != zzz) }").len(), 0);
        assert_eq!(answer(&kb, "SELECT ?x WHERE { ?x age ?n . FILTER(10 <= 9) }").len(), 0);
        for op in ["=", "!=", "<", ">="] {
            let text = format!("SELECT ?x WHERE {{ ?x age ?n . FILTER(?x {op} ?nowhere) }}");
            assert_eq!(answer(&kb, &text).len(), 0, "{op} over an unbound variable");
        }
        // The filter of an OPTIONAL group sees the outer bindings.
        assert_eq!(
            answer(
                &kb,
                "SELECT ?x ?y WHERE { ?x age 30 OPTIONAL { ?x knows ?y . FILTER(?x != a) } }"
            ),
            rows(&[&["a", "_"], &["c", "_"]])
        );
        assert_eq!(value_order("1999-05", "1999-12-01"), Ordering::Less);
        assert_eq!(value_order("9", "10"), Ordering::Less);
        assert_eq!(value_order("-5", "3"), Ordering::Less);
        assert_eq!(value_order("apple", "10"), Ordering::Greater);
        assert_eq!(value_order("b", "a"), Ordering::Greater);
    }

    #[test]
    fn ill_formed_queries_are_rejected() {
        let kb = sample();
        for text in [
            "SELECT * WHERE { ?x knows ?y } GROUP BY ?x",
            "SELECT ?y COUNT(?x) AS ?n WHERE { ?x knows ?y } GROUP BY ?x",
            "SELECT ?x WHERE { ?x knows ?y } ORDER BY ?y",
        ] {
            assert!(eval(&parse(text).unwrap(), &kb).is_err(), "{text}");
        }
    }

    /// A production-side view of the sample plus a hand-built answer.
    fn produced(cols: &[&str], cells: &[&[&str]]) -> (KbBuilder, QueryOutput) {
        let mut view = KbBuilder::new();
        for (s, p, o) in TRIPLES {
            view.assert_str(s, p, o);
        }
        let mut rows = Rows::new(cols.len());
        for row in cells {
            let row: Vec<Cell> = row
                .iter()
                .map(|c| match c.strip_prefix('#') {
                    Some(n) => Cell::count(n.parse().unwrap()),
                    None if *c == "_" => Cell::UNBOUND,
                    None => Cell::term(view.term(c).unwrap()),
                })
                .collect();
            rows.push(&row);
        }
        (view, QueryOutput { cols: cols.iter().map(|c| c.to_string()).collect(), rows })
    }

    fn check(text: &str, cols: &[&str], cells: &[&[&str]]) {
        let (view, got) = produced(cols, cells);
        assert_conforms(&parse(text).unwrap(), &got, &view, &sample());
    }

    const BY_AGE: &str = "SELECT ?x ?n WHERE { ?x age ?n } ORDER BY DESC(?n)";

    #[test]
    fn conformance_accepts_any_row_order_the_query_leaves_open() {
        check("?x knows ?y", &["x", "y"], &[&["b", "c"], &["a", "c"], &["a", "b"]]);
        check(BY_AGE, &["x", "n"], &[&["c", "30"], &["a", "30"], &["b", "7"]]);
        // Either tied row may fill a window; the keys decide.
        check(&format!("{BY_AGE} LIMIT 1"), &["x", "n"], &[&["c", "30"]]);
        check(&format!("{BY_AGE} LIMIT 1"), &["x", "n"], &[&["a", "30"]]);
        check(&format!("{BY_AGE} OFFSET 2 LIMIT 5"), &["x", "n"], &[&["b", "7"]]);
        check("SELECT ?x WHERE { ?x knows ?y } LIMIT 2", &["x"], &[&["b"], &["a"]]);
        check("SELECT COUNT(*) AS ?n WHERE { ?x knows ?y }", &["n"], &[&["#3"]]);
    }

    #[test]
    #[should_panic(expected = "row count of")]
    fn conformance_rejects_a_missing_row() {
        check("?x knows ?y", &["x", "y"], &[&["a", "b"], &["a", "c"]]);
    }

    #[test]
    #[should_panic(expected = "row count of")]
    fn conformance_rejects_a_lost_duplicate() {
        check("SELECT ?x WHERE { ?x knows ?y }", &["x"], &[&["a"], &["b"]]);
    }

    #[test]
    #[should_panic(expected = "more often than the reference")]
    fn conformance_rejects_a_row_traded_for_a_duplicate() {
        check("SELECT ?x WHERE { ?x knows ?y }", &["x"], &[&["a"], &["b"], &["b"]]);
    }

    #[test]
    #[should_panic(expected = "columns of")]
    fn conformance_rejects_renamed_columns() {
        check("?x knows ?y", &["y", "x"], &[&["a", "b"], &["a", "c"], &["b", "c"]]);
    }

    #[test]
    #[should_panic(expected = "where the reference has")]
    fn conformance_rejects_a_step_down_under_order_by() {
        check(BY_AGE, &["x", "n"], &[&["b", "7"], &["a", "30"], &["c", "30"]]);
    }

    #[test]
    #[should_panic(expected = "row count of")]
    fn conformance_rejects_an_unclamped_window() {
        check(&format!("{BY_AGE} OFFSET 2 LIMIT 5"), &["x", "n"], &[&["c", "30"], &["b", "7"]]);
    }

    #[test]
    #[should_panic(expected = "where the reference has")]
    fn conformance_rejects_a_window_from_the_wrong_place() {
        check(&format!("{BY_AGE} LIMIT 1"), &["x", "n"], &[&["b", "7"]]);
    }

    #[test]
    #[should_panic(expected = "more often than the reference")]
    fn conformance_rejects_a_window_row_used_twice() {
        check("SELECT ?x WHERE { ?x knows c } LIMIT 2", &["x"], &[&["b"], &["b"]]);
    }
}
