//! The abstract syntax of `kb-query`'s SPARQL-like language, and its
//! canonical text form.
//!
//! A [`SelectQuery`] is parsed from text ([`mod@crate::parse`]) and lowered
//! to a physical plan ([`mod@crate::plan`]). `Display` renders the
//! *canonical* form: uppercase keywords, single spaces, ` . `-separated
//! group elements in the fixed order *patterns, unions, optionals,
//! filters*. Canonical text is what the serving layer's caches key on,
//! so two spellings of the same query share one plan, and
//! `parse(q.to_string())` reproduces `q` exactly (a property test in
//! `tests/differential.rs` holds the round-trip).

use std::fmt;

use kb_store::TimePoint;

/// A variable or a constant in a pattern or filter.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A named variable (`?x`).
    Var(String),
    /// A constant term, kept as its surface string: queries parse
    /// without a KB, so constants resolve to ids only at plan time.
    Const(String),
}

impl Term {
    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "?{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// One triple pattern, optionally restricted to facts whose temporal
/// scope contains a time point (`?p worksAt ?co @1999`): timeless facts
/// always qualify, scoped facts must contain the point — the same
/// semantics as [`kb_store::KbRead::matching_at`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    /// Subject position.
    pub s: Term,
    /// Predicate position.
    pub p: Term,
    /// Object position.
    pub o: Term,
    /// Temporal restriction, if any.
    pub at: Option<TimePoint>,
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.s, self.p, self.o)?;
        if let Some(at) = &self.at {
            write!(f, " @{at}")?;
        }
        Ok(())
    }
}

/// Comparison operator in a `FILTER`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=` — term identity.
    Eq,
    /// `!=` — term distinctness.
    Ne,
    /// `<` — value ordering (temporal, then numeric, then lexicographic).
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
}

impl CmpOp {
    /// The surface token.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// One `FILTER(lhs op rhs)` constraint. Equality and inequality compare
/// interned term ids; ordered comparisons resolve both sides to strings
/// and compare as time points when both parse as `YYYY[-MM[-DD]]`, as
/// integers when both parse numerically, and lexicographically
/// otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    /// Left operand.
    pub lhs: Term,
    /// The comparison.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Term,
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FILTER({} {} {})", self.lhs, self.op.symbol(), self.rhs)
    }
}

/// A group graph pattern in normalized shape: a conjunctive basic graph
/// pattern plus `UNION` alternatives, `OPTIONAL` sub-groups and
/// `FILTER`s, applied in that order (filters see the whole group, as in
/// SPARQL).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Group {
    /// The conjoined triple patterns (the BGP).
    pub patterns: Vec<Pattern>,
    /// Each `{ a } UNION { b }` element, joined with the BGP.
    pub unions: Vec<(Group, Group)>,
    /// Each `OPTIONAL { ... }` element (left-joined, in order).
    pub optionals: Vec<Group>,
    /// Filters over the group's bindings.
    pub filters: Vec<Condition>,
}

impl Group {
    /// Whether the group contains nothing at all.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
            && self.unions.is_empty()
            && self.optionals.is_empty()
            && self.filters.is_empty()
    }

    /// All distinct variable names bindable by this group (patterns of
    /// the BGP, both union branches, and optionals), sorted.
    pub fn variables(&self) -> Vec<&str> {
        let mut vars: Vec<&str> = Vec::new();
        self.collect_vars(&mut vars);
        vars.sort_unstable();
        vars.dedup();
        vars
    }

    fn collect_vars<'a>(&'a self, out: &mut Vec<&'a str>) {
        for p in &self.patterns {
            out.extend([p.s.as_var(), p.p.as_var(), p.o.as_var()].into_iter().flatten());
        }
        for (a, b) in &self.unions {
            a.collect_vars(out);
            b.collect_vars(out);
        }
        for opt in &self.optionals {
            opt.collect_vars(out);
        }
    }
}

impl fmt::Display for Group {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, " . ")
            }
        };
        for p in &self.patterns {
            sep(f)?;
            write!(f, "{p}")?;
        }
        for (a, b) in &self.unions {
            sep(f)?;
            write!(f, "{{ {a} }} UNION {{ {b} }}")?;
        }
        for opt in &self.optionals {
            sep(f)?;
            write!(f, "OPTIONAL {{ {opt} }}")?;
        }
        for c in &self.filters {
            sep(f)?;
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// One projected column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProjItem {
    /// A plain variable.
    Var(String),
    /// `COUNT(?arg) AS ?alias` (or `COUNT(*)` when `arg` is `None`):
    /// counts the rows of the group where `arg` is bound.
    Count {
        /// The counted variable; `None` means `*`.
        arg: Option<String>,
        /// Output column name.
        alias: String,
    },
}

impl fmt::Display for ProjItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjItem::Var(v) => write!(f, "?{v}"),
            ProjItem::Count { arg: Some(a), alias } => write!(f, "COUNT(?{a}) AS ?{alias}"),
            ProjItem::Count { arg: None, alias } => write!(f, "COUNT(*) AS ?{alias}"),
        }
    }
}

/// One `ORDER BY` key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    /// The projected column (variable or aggregate alias) to sort on.
    pub var: String,
    /// Descending order (`DESC(?x)`).
    pub desc: bool,
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.desc {
            write!(f, "DESC(?{})", self.var)
        } else {
            write!(f, "?{}", self.var)
        }
    }
}

/// A full `SELECT` query: projection, group graph pattern and solution
/// modifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectQuery {
    /// Deduplicate projected rows.
    pub distinct: bool,
    /// Projected columns; `None` is `SELECT *` (every variable of the
    /// group, in sorted name order).
    pub projection: Option<Vec<ProjItem>>,
    /// The `WHERE` clause.
    pub group: Group,
    /// `GROUP BY` variables (aggregation keys).
    pub group_by: Vec<String>,
    /// `ORDER BY` keys over projected columns.
    pub order_by: Vec<OrderKey>,
    /// Maximum number of rows returned.
    pub limit: Option<usize>,
    /// Rows skipped before returning.
    pub offset: usize,
}

impl SelectQuery {
    /// A bare `SELECT *` over a group, no modifiers — what the bare
    /// compact form (`?p bornIn ?c . ?c locatedIn ?n`) desugars to.
    pub fn star(group: Group) -> Self {
        SelectQuery {
            distinct: false,
            projection: None,
            group,
            group_by: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            offset: 0,
        }
    }

    /// Whether the query aggregates (has a `COUNT` column or a
    /// `GROUP BY` clause).
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self
                .projection
                .as_deref()
                .is_some_and(|p| p.iter().any(|i| matches!(i, ProjItem::Count { .. })))
    }
}

impl fmt::Display for SelectQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        match &self.projection {
            None => write!(f, "*")?,
            Some(items) => {
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{item}")?;
                }
            }
        }
        write!(f, " WHERE {{ {} }}", self.group)?;
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY")?;
            for v in &self.group_by {
                write!(f, " ?{v}")?;
            }
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY")?;
            for k in &self.order_by {
                write!(f, " {k}")?;
            }
        }
        if let Some(limit) = self.limit {
            write!(f, " LIMIT {limit}")?;
        }
        if self.offset > 0 {
            write!(f, " OFFSET {}", self.offset)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(v: &str) -> Term {
        Term::Var(v.into())
    }

    fn con(c: &str) -> Term {
        Term::Const(c.into())
    }

    #[test]
    fn display_is_canonical() {
        let q = SelectQuery {
            distinct: true,
            projection: Some(vec![
                ProjItem::Var("p".into()),
                ProjItem::Count { arg: Some("c".into()), alias: "n".into() },
            ]),
            group: Group {
                patterns: vec![Pattern { s: var("p"), p: con("bornIn"), o: var("c"), at: None }],
                unions: vec![],
                optionals: vec![],
                filters: vec![Condition { lhs: var("p"), op: CmpOp::Ne, rhs: var("c") }],
            },
            group_by: vec!["p".into()],
            order_by: vec![OrderKey { var: "n".into(), desc: true }],
            limit: Some(10),
            offset: 2,
        };
        assert_eq!(
            q.to_string(),
            "SELECT DISTINCT ?p COUNT(?c) AS ?n WHERE { ?p bornIn ?c . FILTER(?p != ?c) } \
             GROUP BY ?p ORDER BY DESC(?n) LIMIT 10 OFFSET 2"
        );
    }

    #[test]
    fn group_variables_cover_unions_and_optionals() {
        let g = Group {
            patterns: vec![Pattern { s: var("a"), p: con("r"), o: var("b"), at: None }],
            unions: vec![(
                Group {
                    patterns: vec![Pattern { s: var("b"), p: con("q"), o: var("c"), at: None }],
                    ..Group::default()
                },
                Group {
                    patterns: vec![Pattern { s: var("b"), p: con("q"), o: var("d"), at: None }],
                    ..Group::default()
                },
            )],
            optionals: vec![Group {
                patterns: vec![Pattern { s: var("a"), p: var("r2"), o: var("e"), at: None }],
                ..Group::default()
            }],
            filters: vec![],
        };
        assert_eq!(g.variables(), vec!["a", "b", "c", "d", "e", "r2"]);
    }
}
