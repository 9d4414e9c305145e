//! The cost-based planner: lowers a parsed [`SelectQuery`] into a
//! physical [`Plan`] whose one join is the index-nested-loop scan step.
//!
//! ## Cost model
//!
//! Every triple pattern's cardinality is estimated from the
//! [`StatsCatalog`] under the classic uniformity assumption (fixing a
//! component divides the predicate's range cardinality by its distinct
//! count). The cost of a join order is the sum of intermediate result
//! sizes — the number of index probes the nested-loop execution will
//! actually perform.
//!
//! ## Join ordering
//!
//! Basic graph patterns of up to [`DP_CUTOFF`] patterns are ordered by
//! Selinger-style dynamic programming over pattern subsets (optimal
//! left-deep order under the cost model); larger BGPs fall back to a
//! greedy ordering that repeatedly picks the cheapest remaining
//! pattern. Both leave execution *correct* under any order — the order
//! only decides how much work the scans do.
//!
//! ## One physical join
//!
//! Every pattern of a BGP becomes one scan step, run in the chosen
//! order. Whether a step answers its rows by index lookups or from a
//! probe table of its predicate's run is the executor's decision, made
//! from the rows it has been handed (see [`crate::exec`]); two patterns
//! sharing an object variable (`?a bornIn ?c . ?b diedIn ?c`) are two
//! such steps, the second keyed by the object the first binds.

use kb_store::{KbRead, TermId, TimePoint};

use crate::ast::{CmpOp, Condition, Group, ProjItem, SelectQuery, Term};
use crate::error::QueryError;
use crate::stats::StatsCatalog;

/// BGPs up to this size are join-ordered by exact subset DP; larger
/// ones greedily.
pub(crate) const DP_CUTOFF: usize = 10;

/// A pattern component in a physical scan: a resolved constant or a
/// variable slot in the binding array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// A constant already resolved against the dictionary.
    Const(TermId),
    /// Variable slot index.
    Var(usize),
}

/// One step of a basic-graph-pattern pipeline: a triple pattern with
/// its terms resolved, answered per row of the prefix under that row's
/// bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Step {
    pub s: Slot,
    pub p: Slot,
    pub o: Slot,
    /// `@point`: only facts whose span holds at the point match.
    pub at: Option<TimePoint>,
}

impl Step {
    fn slots(&self) -> impl Iterator<Item = usize> {
        [self.s, self.p, self.o].into_iter().filter_map(|sl| match sl {
            Slot::Var(v) => Some(v),
            Slot::Const(_) => None,
        })
    }

    /// Estimated matches given the set of bound slots.
    fn estimate(&self, bound: &[bool], stats: &StatsCatalog) -> f64 {
        let fixed = |sl: Slot| match sl {
            Slot::Const(_) => true,
            Slot::Var(v) => bound[v],
        };
        let pred = match self.p {
            Slot::Const(id) => Some(id),
            Slot::Var(_) => None,
        };
        stats.estimate(pred, fixed(self.s), fixed(self.o))
    }
}

/// A compiled filter operand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CondOperand {
    /// Variable slot.
    Slot(usize),
    /// Constant: interned id if the dictionary knows it, plus the raw
    /// text (ordered comparisons work even for never-interned literals
    /// like a year that appears in no fact).
    Const { id: Option<TermId>, text: String },
}

/// A compiled filter condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CondC {
    pub lhs: CondOperand,
    pub op: CmpOp,
    pub rhs: CondOperand,
}

/// A physical operator tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PhysOp {
    /// An ordered BGP pipeline.
    Steps(Vec<Step>),
    /// Sequential join: for each row of the left, run the right.
    Join(Box<PhysOp>, Box<PhysOp>),
    /// SPARQL `OPTIONAL`: rows of the left survive even when the right
    /// finds nothing.
    LeftJoin(Box<PhysOp>, Box<PhysOp>),
    /// SPARQL `UNION`: both branches run against the same prefix row.
    Union(Box<PhysOp>, Box<PhysOp>),
    /// Filter over the inner operator's rows.
    Filter(Box<PhysOp>, Vec<CondC>),
    /// Provably empty (a pattern constant the dictionary has never
    /// seen).
    Empty,
}

/// One output column of a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Col {
    /// A projected variable, by slot.
    Var(usize),
    /// A `COUNT` aggregate (`arg` is the counted slot; `None` = `*`).
    Count { name: String, arg: Option<usize> },
}

/// Where one output column of an aggregate plan reads from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GroupCol {
    /// The `i`-th GROUP BY key component.
    Key(usize),
    /// The `i`-th COUNT counter.
    Count(usize),
}

impl Col {
    /// The column's name: its variable's, read from the plan's slot
    /// `names`, or the aggregate's alias.
    pub(crate) fn name<'a>(&'a self, names: &'a [String]) -> &'a str {
        match self {
            Col::Var(slot) => &names[*slot],
            Col::Count { name, .. } => name,
        }
    }
}

/// Number of trace slots an operator tree occupies. The annotator
/// ([`Ctx::annotate`]), the renderer ([`Plan::describe`]) and the batch
/// executor walk the tree in the same order with the same slot layout:
/// every BGP step gets a slot, `Join` is pure composition (no slot of
/// its own), and `Union`/`LeftJoin`/`Filter` each claim one slot before
/// their children.
pub(crate) fn op_slots(op: &PhysOp) -> usize {
    match op {
        PhysOp::Steps(steps) => steps.len(),
        PhysOp::Join(l, r) => op_slots(l) + op_slots(r),
        PhysOp::LeftJoin(l, r) | PhysOp::Union(l, r) => 1 + op_slots(l) + op_slots(r),
        PhysOp::Filter(inner, _) => 1 + op_slots(inner),
        PhysOp::Empty => 0,
    }
}

/// The set of predicates a plan's answer can depend on — the unit of
/// *partial* cache invalidation in the serving layer: a delta install
/// only kills cached entries whose footprint intersects the delta's
/// touched predicates.
///
/// `wildcard` is the conservative escape hatch: a variable in predicate
/// position depends on every predicate, and a constant the dictionary
/// has never seen (anywhere in the query — pattern or filter) can be
/// interned by a future delta, turning an `Empty` sub-plan non-empty or
/// changing a filter comparison. Wildcard entries are invalidated by
/// every delta.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Footprint {
    /// Sorted, deduplicated predicate ids the query scans.
    pub(crate) preds: Vec<TermId>,
    /// Depends on predicates (or terms) beyond `preds`.
    pub(crate) wildcard: bool,
}

impl Footprint {
    /// Whether a delta touching `touched` (sorted) can change this
    /// plan's answer.
    pub(crate) fn is_touched_by(&self, touched: &[TermId]) -> bool {
        if self.wildcard {
            return true;
        }
        let (mut i, mut j) = (0, 0);
        while i < self.preds.len() && j < touched.len() {
            match self.preds[i].cmp(&touched[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Whether the footprint depends on every predicate.
    pub fn is_wildcard(&self) -> bool {
        self.wildcard
    }

    /// The sorted predicate ids the plan's answer can depend on
    /// (empty for pure-wildcard footprints). `--explain` prints these
    /// so users can predict which delta installs touch a standing view.
    pub fn preds(&self) -> &[TermId] {
        &self.preds
    }
}

/// Walks the query group collecting its predicate footprint.
fn collect_footprint<K: KbRead + ?Sized>(g: &Group, kb: &K, fp: &mut Footprint) {
    for pat in &g.patterns {
        match &pat.p {
            Term::Var(_) => fp.wildcard = true,
            Term::Const(c) => match kb.term(c) {
                Some(id) => fp.preds.push(id),
                None => fp.wildcard = true,
            },
        }
        for t in [&pat.s, &pat.o] {
            if let Term::Const(c) = t {
                if kb.term(c).is_none() {
                    fp.wildcard = true;
                }
            }
        }
    }
    for c in &g.filters {
        for t in [&c.lhs, &c.rhs] {
            if let Term::Const(s) = t {
                if kb.term(s).is_none() {
                    fp.wildcard = true;
                }
            }
        }
    }
    for (a, b) in &g.unions {
        collect_footprint(a, kb, fp);
        collect_footprint(b, kb, fp);
    }
    for o in &g.optionals {
        collect_footprint(o, kb, fp);
    }
}

/// Whether a parsed query is answerable by a single subject partition.
///
/// A query is *subject-bound* when every triple pattern anywhere in it
/// — the basic graph pattern, both branches of every `UNION`, every
/// `OPTIONAL` — puts one and the same constant in subject position.
/// Such a query can only ever touch facts colocated with that subject,
/// so a subject-partitioned deployment routes it to exactly one
/// partition; anything else must scatter.
///
/// Decided purely on the AST (no dictionary access): a constant the
/// store has never seen still routes to the partition that *would* own
/// it, where planning resolves it to an empty scan exactly as a
/// monolithic service would.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoutingDecision {
    /// Every pattern binds the subject to this constant.
    SubjectBound {
        /// The shared subject constant.
        subject: String,
    },
    /// Patterns disagree on the subject, bind it to a variable, or the
    /// query has no patterns at all.
    Scatter,
}

impl RoutingDecision {
    /// One-line human description, used by `--explain`.
    pub fn describe(&self) -> String {
        match self {
            RoutingDecision::SubjectBound { subject } => {
                format!("single partition (subject-bound to {subject:?})")
            }
            RoutingDecision::Scatter => "scatter to all partitions".to_string(),
        }
    }
}

/// Computes the [`RoutingDecision`] for a parsed query.
pub fn routing_decision(query: &SelectQuery) -> RoutingDecision {
    fn walk<'a>(g: &'a Group, subject: &mut Option<&'a str>) -> bool {
        for pat in &g.patterns {
            match &pat.s {
                Term::Var(_) => return false,
                Term::Const(c) => match subject {
                    Some(s) if *s != c.as_str() => return false,
                    Some(_) => {}
                    None => *subject = Some(c),
                },
            }
        }
        g.unions.iter().all(|(a, b)| walk(a, subject) && walk(b, subject))
            && g.optionals.iter().all(|o| walk(o, subject))
    }
    let mut subject = None;
    if walk(&query.group, &mut subject) {
        if let Some(s) = subject {
            return RoutingDecision::SubjectBound { subject: s.to_string() };
        }
    }
    RoutingDecision::Scatter
}

/// An executable physical plan. Produced by [`plan()`]; run with
/// [`crate::exec::execute`]. Plans borrow nothing — they are cheap to
/// cache and share across threads for a given view.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Variable names, indexed by slot; the binding array is this wide.
    pub(crate) names: Vec<String>,
    /// Root operator.
    pub(crate) root: PhysOp,
    /// Output columns, in projection order.
    pub(crate) cols: Vec<Col>,
    /// Deduplicate output rows.
    pub(crate) distinct: bool,
    /// Aggregation keys (slots); meaningful when `aggregate` is set.
    pub(crate) group_by: Vec<usize>,
    /// Whether the plan aggregates.
    pub(crate) aggregate: bool,
    /// Where each column of an aggregate plan reads from, in column
    /// order; empty unless `aggregate` is set.
    pub(crate) group_cols: Vec<GroupCol>,
    /// `ORDER BY` keys as (column index, descending).
    pub(crate) order_by: Vec<(usize, bool)>,
    /// Row limit.
    pub(crate) limit: Option<usize>,
    /// Rows skipped.
    pub(crate) offset: usize,
    /// Total estimated cost (index probes) of the chosen join orders.
    pub(crate) est_cost: f64,
    /// Estimated output rows per operator, in executor slot order.
    pub(crate) est_rows: Vec<f64>,
    /// Predicates the answer depends on (partial-invalidation key).
    pub(crate) footprint: Footprint,
}

impl Plan {
    /// Output column names, in projection order.
    pub fn columns(&self) -> Vec<&str> {
        self.cols.iter().map(|c| c.name(&self.names)).collect()
    }

    /// Whether the plan aggregates (COUNT, GROUP BY or both): its rows
    /// are then groups, counted in
    /// [`ExecTrace::groups`](crate::exec::ExecTrace::groups).
    pub fn is_aggregate(&self) -> bool {
        self.aggregate
    }

    /// The predicates this plan's answer depends on.
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }

    /// The planner's total cost estimate (expected index probes).
    pub fn estimated_cost(&self) -> f64 {
        self.est_cost
    }

    /// Estimated output rows per operator under the cost model,
    /// aligned index-for-index with
    /// [`ExecTrace::op_rows`](crate::exec::ExecTrace::op_rows).
    pub fn est_rows(&self) -> &[f64] {
        &self.est_rows
    }

    /// Describes the plan's operators on demand, one label per trace
    /// slot, aligned index-for-index with [`Plan::est_rows`] and
    /// [`ExecTrace::op_rows`](crate::exec::ExecTrace::op_rows). `kb` is
    /// the view the plan was made for: its dictionary spells the
    /// constants. The operators under a `union`, `optional` or `filter`
    /// label are indented one level below it. A plan that a constant
    /// missing from the dictionary empties has no operator and no label.
    pub fn describe<K: KbRead + ?Sized>(&self, kb: &K) -> Vec<String> {
        let mut labels = Vec::with_capacity(self.est_rows.len());
        describe_op(&self.root, &self.names, kb, 0, &mut labels);
        labels
    }
}

/// Appends one label per trace slot of `op`, in [`op_slots`] order,
/// `depth` levels in.
fn describe_op<K: KbRead + ?Sized>(
    op: &PhysOp,
    names: &[String],
    kb: &K,
    depth: usize,
    out: &mut Vec<String>,
) {
    let pad = "  ".repeat(depth);
    let term = |sl: Slot| match sl {
        Slot::Const(id) => kb.resolve(id).unwrap_or("?").to_string(),
        Slot::Var(v) => format!("?{}", names[v]),
    };
    match op {
        PhysOp::Steps(steps) => {
            for step in steps {
                let at = if step.at.is_some() { " @t" } else { "" };
                let (s, p, o) = (term(step.s), term(step.p), term(step.o));
                out.push(format!("{pad}scan `{s} {p} {o}`{at}"));
            }
        }
        PhysOp::Join(l, r) => {
            describe_op(l, names, kb, depth, out);
            describe_op(r, names, kb, depth, out);
        }
        PhysOp::Union(l, r) | PhysOp::LeftJoin(l, r) => {
            let name = if matches!(op, PhysOp::Union(..)) { "union" } else { "optional" };
            out.push(format!("{pad}{name}"));
            describe_op(l, names, kb, depth + 1, out);
            describe_op(r, names, kb, depth + 1, out);
        }
        PhysOp::Filter(inner, conds) => {
            let operand = |o: &CondOperand| match o {
                CondOperand::Slot(v) => format!("?{}", names[*v]),
                CondOperand::Const { text, .. } => text.clone(),
            };
            let conds: Vec<String> = conds
                .iter()
                .map(|c| format!("{} {} {}", operand(&c.lhs), c.op.symbol(), operand(&c.rhs)))
                .collect();
            out.push(format!("{pad}filter {}", conds.join(" ∧ ")));
            describe_op(inner, names, kb, depth + 1, out);
        }
        PhysOp::Empty => {}
    }
}

/// A cost-ordered operator with its estimated cost and output rows.
struct BgpPlan {
    op: PhysOp,
    cost: f64,
    rows: f64,
}

/// Internal planning context.
struct Ctx<'a, K: KbRead + ?Sized> {
    kb: &'a K,
    stats: &'a StatsCatalog,
    /// Variable names by slot; a query has a handful, so a name is
    /// found by scanning.
    names: Vec<String>,
}

impl<K: KbRead + ?Sized> Ctx<'_, K> {
    /// The slot of variable `name`, interned on first sight.
    fn slot(&mut self, name: &str) -> usize {
        self.names.iter().position(|n| n == name).unwrap_or_else(|| {
            self.names.push(name.to_string());
            self.names.len() - 1
        })
    }

    fn resolve_term(&mut self, t: &Term) -> Option<Slot> {
        match t {
            Term::Var(v) => Some(Slot::Var(self.slot(v))),
            Term::Const(c) => self.kb.term(c).map(Slot::Const),
        }
    }

    /// Resolves the BGP's patterns into scan steps and orders them with
    /// subset DP (≤ [`DP_CUTOFF`] patterns) or greedily.
    fn plan_bgp(&mut self, patterns: &[crate::ast::Pattern], bound: &[bool]) -> BgpPlan {
        // Every pattern is resolved (interning its variables) before a
        // constant the dictionary lacks empties the BGP.
        let resolved: Vec<Option<Step>> = patterns
            .iter()
            .map(|pat| {
                let [s, p, o] = [&pat.s, &pat.p, &pat.o].map(|t| self.resolve_term(t));
                Some(Step { s: s?, p: p?, o: o?, at: pat.at })
            })
            .collect();
        if resolved.iter().any(Option::is_none) {
            return BgpPlan { op: PhysOp::Empty, cost: 0.0, rows: 0.0 };
        }
        let rp: Vec<Step> = resolved.into_iter().flatten().collect();
        // `resolve_term` may have grown the slot table; re-pad `bound`.
        let mut bound = bound.to_vec();
        bound.resize(self.names.len(), false);

        let order = if rp.len() <= DP_CUTOFF {
            self.dp_order(&rp, &bound)
        } else {
            self.greedy_order(&rp, &bound)
        };
        let (cost, rows) = self.sequence_cost(&rp, &order, &bound);
        BgpPlan { op: PhysOp::Steps(order.iter().map(|&i| rp[i]).collect()), cost, rows }
    }

    /// Exact left-deep join ordering by DP over pattern subsets.
    fn dp_order(&self, rp: &[Step], entry_bound: &[bool]) -> Vec<usize> {
        let k = rp.len();
        let full = (1usize << k) - 1;
        // (cost, rows, last pattern chosen)
        let mut best: Vec<Option<(f64, f64, usize)>> = vec![None; full + 1];
        best[0] = Some((0.0, 1.0, usize::MAX));
        let mut bound = entry_bound.to_vec();
        for mask in 0..=full {
            let Some((cost, rows, _)) = best[mask] else { continue };
            // Recompute the bound set for this subset.
            bound.copy_from_slice(entry_bound);
            for (i, p) in rp.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    for v in p.slots() {
                        bound[v] = true;
                    }
                }
            }
            for (j, p) in rp.iter().enumerate() {
                if mask & (1 << j) != 0 {
                    continue;
                }
                let sel = p.estimate(&bound, self.stats);
                let nrows = rows * sel;
                // Each prefix row pays for its probe plus the results
                // it streams out.
                let ncost = cost + rows.max(1.0) + nrows;
                let nm = mask | (1 << j);
                if best[nm].is_none_or(|(c, _, _)| ncost < c) {
                    best[nm] = Some((ncost, nrows, j));
                }
            }
        }
        // Reconstruct the order back from the full mask.
        let mut order = Vec::with_capacity(k);
        let mut mask = full;
        while mask != 0 {
            let (_, _, last) = best[mask].expect("DP table is dense");
            order.push(last);
            mask &= !(1 << last);
        }
        order.reverse();
        order
    }

    /// Greedy ordering: repeatedly take the cheapest remaining pattern.
    fn greedy_order(&self, rp: &[Step], entry_bound: &[bool]) -> Vec<usize> {
        let mut bound = entry_bound.to_vec();
        let mut remaining: Vec<usize> = (0..rp.len()).collect();
        let mut order = Vec::with_capacity(remaining.len());
        while !remaining.is_empty() {
            let (pos, &pick) = remaining
                .iter()
                .enumerate()
                .min_by(|(_, &a), (_, &b)| {
                    let ea = rp[a].estimate(&bound, self.stats);
                    let eb = rp[b].estimate(&bound, self.stats);
                    ea.total_cmp(&eb).then(a.cmp(&b))
                })
                .expect("non-empty remaining");
            order.push(pick);
            for v in rp[pick].slots() {
                bound[v] = true;
            }
            remaining.remove(pos);
        }
        order
    }

    /// Cost and output rows of executing `rp` in `order`.
    fn sequence_cost(&self, rp: &[Step], order: &[usize], entry_bound: &[bool]) -> (f64, f64) {
        let mut bound = entry_bound.to_vec();
        let mut cost = 0.0;
        let mut rows = 1.0;
        for &i in order {
            let sel = rp[i].estimate(&bound, self.stats);
            let nrows = rows * sel;
            cost += rows.max(1.0) + nrows;
            rows = nrows;
            for v in rp[i].slots() {
                bound[v] = true;
            }
        }
        (cost, rows)
    }

    /// Lowers a group: BGP ⋈ unions ⟕ optionals, filtered.
    fn lower_group(&mut self, g: &Group, bound: &[bool]) -> BgpPlan {
        let mut plan = self.plan_bgp(&g.patterns, bound);
        let mut bound = bound.to_vec();
        bound.resize(self.names.len(), false);
        for p in &g.patterns {
            for t in [&p.s, &p.p, &p.o] {
                if let Term::Var(v) = t {
                    let s = self.slot(v);
                    if s < bound.len() {
                        bound[s] = true;
                    }
                }
            }
        }
        for (a, b) in &g.unions {
            let pa = self.lower_group(a, &bound);
            let pb = self.lower_group(b, &bound);
            bound.resize(self.names.len(), false);
            let cost = plan.cost + plan.rows.max(1.0) * (pa.cost + pb.cost);
            let rows = plan.rows * (pa.rows + pb.rows);
            plan = BgpPlan {
                op: PhysOp::Join(
                    Box::new(plan.op),
                    Box::new(PhysOp::Union(Box::new(pa.op), Box::new(pb.op))),
                ),
                cost,
                rows,
            };
        }
        for opt in &g.optionals {
            let po = self.lower_group(opt, &bound);
            bound.resize(self.names.len(), false);
            let cost = plan.cost + plan.rows.max(1.0) * po.cost;
            let rows = plan.rows * po.rows.max(1.0);
            plan = BgpPlan { op: PhysOp::LeftJoin(Box::new(plan.op), Box::new(po.op)), cost, rows };
        }
        if !g.filters.is_empty() {
            let conds: Vec<CondC> = g.filters.iter().map(|c| self.compile_cond(c)).collect();
            plan = BgpPlan {
                op: PhysOp::Filter(Box::new(plan.op), conds),
                cost: plan.cost,
                rows: plan.rows * 0.5f64.powi(g.filters.len() as i32),
            };
        }
        plan
    }

    fn compile_cond(&mut self, c: &Condition) -> CondC {
        let mut operand = |t: &Term| match t {
            Term::Var(v) => CondOperand::Slot(self.slot(v)),
            Term::Const(s) => CondOperand::Const { id: self.kb.term(s), text: s.clone() },
        };
        CondC { lhs: operand(&c.lhs), op: c.op, rhs: operand(&c.rhs) }
    }

    /// Walks the finished operator tree producing one row estimate per
    /// executor trace slot (same layout as [`op_slots`]), re-deriving
    /// them with the bound-variable state each operator sees at
    /// runtime. Returns the estimated rows flowing out of `op`.
    fn annotate(
        &self,
        op: &PhysOp,
        bound: &mut Vec<bool>,
        rows_in: f64,
        out: &mut Vec<f64>,
    ) -> f64 {
        match op {
            PhysOp::Steps(steps) => {
                let mut rows = rows_in;
                for step in steps {
                    rows *= step.estimate(bound, self.stats);
                    out.push(rows);
                    for sl in [step.s, step.o] {
                        if let Slot::Var(v) = sl {
                            bound[v] = true;
                        }
                    }
                }
                rows
            }
            PhysOp::Join(l, r) => {
                let lr = self.annotate(l, bound, rows_in, out);
                self.annotate(r, bound, lr, out)
            }
            PhysOp::Union(l, r) => {
                let idx = out.len();
                out.push(0.0);
                let old = bound.clone();
                let mut bl = old.clone();
                let lo = self.annotate(l, &mut bl, rows_in, out);
                let mut br = old.clone();
                let ro = self.annotate(r, &mut br, rows_in, out);
                // A variable is bound after the union only if both
                // branches bind it (or it already was).
                for (i, b) in bound.iter_mut().enumerate() {
                    *b = old[i] || (bl[i] && br[i]);
                }
                let est = lo + ro;
                out[idx] = est;
                est
            }
            PhysOp::LeftJoin(l, r) => {
                let idx = out.len();
                out.push(0.0);
                let lo = self.annotate(l, bound, rows_in, out);
                // Optional bindings don't survive as bound downstream.
                let mut br = bound.clone();
                let ro = self.annotate(r, &mut br, lo, out);
                let est = ro.max(lo);
                out[idx] = est;
                est
            }
            PhysOp::Filter(inner, conds) => {
                let idx = out.len();
                out.push(0.0);
                let io = self.annotate(inner, bound, rows_in, out);
                let est = io * 0.5f64.powi(conds.len() as i32);
                out[idx] = est;
                est
            }
            PhysOp::Empty => 0.0,
        }
    }
}

/// Plans a parsed query against a KB view and its statistics catalog.
pub fn plan<K: KbRead + ?Sized>(
    query: &SelectQuery,
    kb: &K,
    stats: &StatsCatalog,
) -> Result<Plan, QueryError> {
    let mut ctx = Ctx { kb, stats, names: Vec::new() };
    // Intern the group's variables first, in sorted order, so `SELECT *`
    // column order is independent of pattern order.
    for v in query.group.variables() {
        ctx.slot(v);
    }
    let lowered = ctx.lower_group(&query.group, &vec![false; ctx.names.len()]);

    // Projection.
    let aggregate = query.is_aggregate();
    let cols: Vec<Col> = match &query.projection {
        None => {
            if aggregate {
                return Err(QueryError::Plan("GROUP BY requires an explicit projection".into()));
            }
            query.group.variables().into_iter().map(|v| Col::Var(ctx.slot(v))).collect()
        }
        Some(items) => items
            .iter()
            .map(|item| match item {
                ProjItem::Var(v) => Col::Var(ctx.slot(v)),
                ProjItem::Count { arg, alias } => {
                    Col::Count { name: alias.clone(), arg: arg.as_ref().map(|v| ctx.slot(v)) }
                }
            })
            .collect(),
    };
    let group_by: Vec<usize> = query.group_by.iter().map(|v| ctx.slot(v)).collect();
    // An aggregate's output cell is a GROUP BY key component or a count,
    // so a group needs to remember nothing else.
    let mut group_cols = Vec::new();
    if aggregate {
        let mut counts = 0;
        for col in &cols {
            group_cols.push(match col {
                Col::Var(slot) => match group_by.iter().position(|g| g == slot) {
                    Some(at) => GroupCol::Key(at),
                    None => {
                        return Err(QueryError::Plan(format!(
                            "projected variable ?{} must appear in GROUP BY",
                            ctx.names[*slot]
                        )))
                    }
                },
                Col::Count { .. } => {
                    counts += 1;
                    GroupCol::Count(counts - 1)
                }
            });
        }
    }

    // ORDER BY keys must reference projected columns.
    let mut order_by = Vec::with_capacity(query.order_by.len());
    for key in &query.order_by {
        let idx = cols.iter().position(|c| c.name(&ctx.names) == key.var).ok_or_else(|| {
            QueryError::Plan(format!("ORDER BY key ?{} is not a projected column", key.var))
        })?;
        order_by.push((idx, key.desc));
    }

    let mut footprint = Footprint::default();
    collect_footprint(&query.group, kb, &mut footprint);
    footprint.preds.sort_unstable();
    footprint.preds.dedup();
    let mut est_rows = Vec::new();
    ctx.annotate(&lowered.op, &mut vec![false; ctx.names.len()], 1.0, &mut est_rows);
    Ok(Plan {
        root: lowered.op,
        cols,
        distinct: query.distinct,
        group_by,
        aggregate,
        group_cols,
        order_by,
        limit: query.limit,
        offset: query.offset,
        est_cost: lowered.cost,
        est_rows,
        footprint,
        names: ctx.names,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use kb_store::KbBuilder;

    fn skewed_snap() -> kb_store::KbSnapshot {
        let mut b = KbBuilder::new();
        // rel_big: 600 facts; rel_rare: 3 facts.
        for i in 0..600 {
            b.assert_str(&format!("s{}", i % 100), "rel_big", &format!("o{}", i % 50));
        }
        for i in 0..3 {
            b.assert_str(&format!("s{i}"), "rel_rare", &format!("s{}", i + 1));
        }
        b.freeze()
    }

    #[test]
    fn planner_starts_with_the_selective_pattern() {
        let snap = skewed_snap();
        let stats = StatsCatalog::build(&snap);
        // Text order puts the big relation first; the planner must not.
        let q = parse("?x rel_big ?y . ?a rel_rare ?x").unwrap();
        let p = plan(&q, &snap, &stats).unwrap();
        let PhysOp::Steps(steps) = &p.root else { panic!("expected steps") };
        let rare = snap.term("rel_rare").unwrap();
        assert!(
            matches!(&steps[0], Step { p: Slot::Const(pid), .. } if *pid == rare),
            "first step should scan rel_rare: {steps:?}"
        );
    }

    #[test]
    fn unknown_constants_plan_to_empty() {
        let snap = skewed_snap();
        let stats = StatsCatalog::build(&snap);
        let q = parse("?x rel_big Atlantis").unwrap();
        let p = plan(&q, &snap, &stats).unwrap();
        assert_eq!(p.root, PhysOp::Empty);
        assert_eq!(p.estimated_cost(), 0.0);
    }

    #[test]
    fn the_renderer_labels_every_trace_slot_from_the_dictionary() {
        let snap = skewed_snap();
        let stats = StatsCatalog::build(&snap);
        let q = parse(
            "SELECT ?x COUNT(?y) AS ?n WHERE { ?x rel_rare ?y \
             { ?x rel_big o1 } UNION { ?y rel_big ?z } OPTIONAL { ?y rel_rare ?w } \
             FILTER(?x != s2) FILTER(?y != ?x) } GROUP BY ?x",
        )
        .unwrap();
        let p = plan(&q, &snap, &stats).unwrap();
        let labels = p.describe(&snap);
        assert_eq!(
            labels,
            [
                "filter ?x != s2 ∧ ?y != ?x",
                "  optional",
                "    scan `?x rel_rare ?y`",
                "    union",
                "      scan `?x rel_big o1`",
                "      scan `?y rel_big ?z`",
                "    scan `?y rel_rare ?w`",
            ]
        );
        assert_eq!(labels.len(), op_slots(&p.root));
        assert_eq!(p.est_rows().len(), labels.len());
        let (_, trace) = crate::exec::execute_traced(&p, &snap);
        assert_eq!(trace.op_rows.len(), labels.len());

        // A constant the dictionary lacks empties the plan: no operator
        // runs, so there is no trace slot, estimate or label.
        let q = parse("?x rel_big Atlantis").unwrap();
        let p = plan(&q, &snap, &stats).unwrap();
        assert_eq!(p.root, PhysOp::Empty);
        assert!(p.describe(&snap).is_empty() && p.est_rows().is_empty());
    }

    #[test]
    fn order_by_must_be_projected() {
        let snap = skewed_snap();
        let stats = StatsCatalog::build(&snap);
        let q = parse("SELECT ?a WHERE { ?a rel_big ?b } ORDER BY ?zzz").unwrap();
        assert!(matches!(plan(&q, &snap, &stats), Err(QueryError::Plan(_))));
    }

    #[test]
    fn aggregate_projection_is_validated() {
        let snap = skewed_snap();
        let stats = StatsCatalog::build(&snap);
        let q = parse("SELECT ?b COUNT(?a) AS ?n WHERE { ?a rel_big ?b } GROUP BY ?a").unwrap();
        assert!(matches!(plan(&q, &snap, &stats), Err(QueryError::Plan(_))));
    }

    #[test]
    fn footprint_scopes_invalidation_to_touched_predicates() {
        let snap = skewed_snap();
        let stats = StatsCatalog::build(&snap);
        let big = snap.term("rel_big").unwrap();
        let rare = snap.term("rel_rare").unwrap();

        let q = parse("?x rel_big ?y . ?a rel_rare ?x").unwrap();
        let p = plan(&q, &snap, &stats).unwrap();
        assert!(!p.footprint().is_wildcard());
        assert!(p.footprint().is_touched_by(&[big]));
        assert!(p.footprint().is_touched_by(&[rare]));
        let other = TermId(9999);
        assert!(!p.footprint().is_touched_by(&[other]));

        // A variable in predicate position depends on everything.
        let q = parse("?x ?r ?y").unwrap();
        let p = plan(&q, &snap, &stats).unwrap();
        assert!(p.footprint().is_wildcard());
        assert!(p.footprint().is_touched_by(&[other]));

        // An unknown constant anywhere makes the plan wildcard: a delta
        // interning `Atlantis` could turn this Empty plan non-empty.
        let q = parse("?x rel_big Atlantis").unwrap();
        let p = plan(&q, &snap, &stats).unwrap();
        assert!(p.footprint().is_wildcard());
    }

    #[test]
    fn routing_decision_detects_subject_bound_queries() {
        let bound = |text: &str| match routing_decision(&parse(text).unwrap()) {
            RoutingDecision::SubjectBound { subject } => Some(subject),
            RoutingDecision::Scatter => None,
        };
        // One constant subject everywhere — patterns, unions, optionals.
        assert_eq!(bound("s1 rel_big ?y"), Some("s1".into()));
        assert_eq!(bound("s1 rel_big ?y . s1 rel_rare ?z"), Some("s1".into()));
        assert_eq!(
            bound("SELECT ?y WHERE { { s1 rel_big ?y } UNION { s1 rel_rare ?y } }"),
            Some("s1".into())
        );
        assert_eq!(
            bound("SELECT ?y ?z WHERE { s1 rel_big ?y OPTIONAL { s1 rel_rare ?z } }"),
            Some("s1".into())
        );
        // A constant the store never interned is still subject-bound:
        // it routes to the partition that would own it.
        assert_eq!(bound("Atlantis rel_big ?y"), Some("Atlantis".into()));
        // Variable subject, disagreeing subjects, or no patterns at all.
        assert_eq!(bound("?x rel_big ?y"), None);
        assert_eq!(bound("s1 rel_big ?y . s2 rel_big ?z"), None);
        assert_eq!(bound("SELECT ?y WHERE { { s1 rel_big ?y } UNION { s2 rel_big ?y } }"), None);
        assert_eq!(bound("SELECT ?y WHERE { s1 rel_big ?y OPTIONAL { ?x rel_rare ?y } }"), None);
    }
}
