//! Standing queries with incremental view maintenance (IVM).
//!
//! A [`ViewRegistry`] holds SELECT / COUNT+GROUP BY queries registered
//! as *materialized standing views*. On every delta install the
//! registry patches each affected view's materialized answer from the
//! delta itself instead of re-executing the query:
//!
//! 1. The install's [`DeltaSegment`] is lowered to a **signed set of
//!    fact changes** — `New` entries contribute `+1`, `Tombstone`
//!    entries `−1` (using the *old* view's visible fact, so temporal
//!    `@t` restrictions see the span that actually matched), and
//!    `Shadow` entries a `−old/+new` pair when the evidence merge
//!    changed the fact's span (confidence and provenance are invisible
//!    to query answers, so span-preserving shadows contribute nothing).
//! 2. Each standing view's plan is flattened to its scan steps
//!    `S₁ … Sₙ` plus filters, and the classic telescoping decomposition
//!    `Δ(S₁ ⋈ … ⋈ Sₙ) = Σᵢ  Sⱼ₍ⱼ₌₁…ᵢ₋₁₎(new) ⋈ ΔSᵢ ⋈ Sⱼ₍ⱼ₌ᵢ₊₁…ₙ₎(old)`
//!    enumerates exactly the result rows whose multiplicity changed,
//!    with the sign carried through the join. The join is the
//!    executor's: for position `i`, the delta facts of one sign that
//!    bind `Sᵢ` seed a batch that `Sᵢ₊₁ … Sₙ` join over the old view and
//!    `S₁ … Sᵢ₋₁` over the new one, through the same scan steps (and
//!    probe tables) a query runs on. This module opens no index scan of
//!    its own.
//! 3. The signed rows patch the view's state — a row multiset for
//!    plain SELECTs, a signed per-group counter map for COUNT+GROUP BY
//!    — and the materialized output is rebuilt from that state in
//!    **canonical order** (total row order, then the plan's ORDER BY
//!    keys as a stable pass), so a patched answer is byte-identical to
//!    a canonicalized full re-execution.
//!
//! Plan shapes outside the incrementally-maintainable fragment —
//! `OPTIONAL` (non-monotone left joins), `UNION` bag semantics,
//! `LIMIT`/`OFFSET` windows, and plans pinned to constants the
//! dictionary had not interned at registration time — **fall back** to
//! re-planning and re-executing on every touched install. The
//! [`maintainability`] classifier that decides this is public, and
//! `kbkit query --explain` prints its verdict.
//!
//! The registry is storage-agnostic: maintenance takes the old and new
//! views as plain [`KbRead`] values, so the same code patches views
//! over a monolithic [`SegmentedSnapshot`](kb_store::SegmentedSnapshot)
//! in `QueryService` and over a scan-merged partitioned view in
//! `kb-serve`'s router.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use kb_obs::{Clock, Counter, Gauge, Histogram, Registry, SpanTimer};
use kb_store::{DeltaSegment, Fact, FactKind, KbRead, TermId};

use crate::ast::SelectQuery;
use crate::error::QueryError;
use crate::exec::{
    cmp_cells, delta_join, eval_cond_with, execute, project_row, push_group, Cell, CellValue,
    QueryOutput, Rows,
};
use crate::parse::parse;
use crate::plan::{plan as compile, Col, CondC, CondOperand, PhysOp, Plan, Step};
use crate::stats::StatsCatalog;

/// Handle to one registered standing view. Ids are registry-scoped and
/// never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewId(pub u64);

impl std::fmt::Display for ViewId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "view#{}", self.0)
    }
}

/// Whether a compiled plan's answer can be maintained incrementally
/// from delta segments, or must be re-executed on every touched
/// install.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Maintainability {
    /// Conjunctive SELECT / COUNT+GROUP BY: patched via signed
    /// delta joins.
    Incremental,
    /// The plan shape defeats delta patching; the view re-executes.
    Fallback(&'static str),
}

impl Maintainability {
    /// One-line human description, used by `--explain`.
    pub fn describe(&self) -> String {
        match self {
            Maintainability::Incremental => "delta-patchable (incremental maintenance)".into(),
            Maintainability::Fallback(reason) => {
                format!("re-execute on delta ({reason})")
            }
        }
    }

    /// Whether the plan is delta-patchable.
    pub(crate) fn is_incremental(&self) -> bool {
        matches!(self, Maintainability::Incremental)
    }
}

/// Flattens a physical operator tree into one pipeline of scan steps +
/// hoisted filters. Conjunctive plans attach every filter above the
/// full join (single group, no OPTIONAL/UNION), so hoisting preserves
/// semantics exactly.
fn flatten(
    op: &PhysOp,
    steps: &mut Vec<Step>,
    filters: &mut Vec<CondC>,
) -> Result<(), &'static str> {
    match op {
        PhysOp::Steps(s) => {
            steps.extend_from_slice(s);
            Ok(())
        }
        PhysOp::Join(l, r) => {
            flatten(l, steps, filters)?;
            flatten(r, steps, filters)
        }
        PhysOp::Filter(inner, conds) => {
            flatten(inner, steps, filters)?;
            filters.extend(conds.iter().cloned());
            Ok(())
        }
        PhysOp::LeftJoin(..) => Err("OPTIONAL is non-monotone"),
        PhysOp::Union(..) => Err("UNION bag semantics"),
        PhysOp::Empty => Err("plan pinned to a never-interned constant"),
    }
}

/// Classifies a compiled plan: incrementally maintainable, or doomed to
/// re-execution (and why). Public so `--explain` can print the verdict
/// clients will observe when they register the query as a standing
/// view.
pub fn maintainability(plan: &Plan) -> Maintainability {
    if plan.limit.is_some() || plan.offset > 0 {
        return Maintainability::Fallback("LIMIT/OFFSET window over the full answer");
    }
    let mut steps = Vec::new();
    let mut filters = Vec::new();
    if let Err(reason) = flatten(&plan.root, &mut steps, &mut filters) {
        return Maintainability::Fallback(reason);
    }
    for c in &filters {
        for operand in [&c.lhs, &c.rhs] {
            if matches!(operand, CondOperand::Const { id: None, .. }) {
                return Maintainability::Fallback("filter constant not interned at plan time");
            }
        }
    }
    Maintainability::Incremental
}

// ---------------------------------------------------------------------
// Canonical row order
// ---------------------------------------------------------------------

/// Total order on cells: the executor's value comparison
/// ([`cmp_cells`]) refined by raw-id tiebreaks, so distinct cells never
/// compare equal (two different terms can compare value-equal, e.g.
/// `1969` vs `01969` both parsing to the same integer).
fn cmp_cell_total<K: KbRead + ?Sized>(a: Cell, b: Cell, kb: &K) -> std::cmp::Ordering {
    cmp_cells(a, b, kb).then_with(|| match (a.value(), b.value()) {
        (CellValue::Term(x), CellValue::Term(y)) => x.cmp(&y),
        (CellValue::Count(x), CellValue::Count(y)) => x.cmp(&y),
        _ => std::cmp::Ordering::Equal,
    })
}

fn cmp_row_total<K: KbRead + ?Sized>(a: &[Cell], b: &[Cell], kb: &K) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = cmp_cell_total(*x, *y, kb);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

/// The canonical standing-view row order: the plan's ORDER BY keys
/// first, ties broken by the total row order. Equivalent to a total
/// sort followed by a stable ORDER BY pass, but usable as a single
/// comparator — which is what lets the patch path binary-search an
/// already-canonical answer instead of re-sorting it.
fn cmp_canonical<K: KbRead + ?Sized>(
    plan: &Plan,
    a: &[Cell],
    b: &[Cell],
    kb: &K,
) -> std::cmp::Ordering {
    for &(idx, desc) in &plan.order_by {
        let ord = cmp_cell_total(a[idx], b[idx], kb);
        let ord = if desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    cmp_row_total(a, b, kb)
}

/// The row numbers of `rows` in the canonical standing-view order. Both
/// the delta-patched path and full re-execution canonicalize through
/// this one order, which is what makes "byte-identical" well-defined
/// even though raw executor row order depends on the join order. Equal
/// rows are neighbours in it: the order is total.
fn canonical_order<K: KbRead + ?Sized>(plan: &Plan, rows: &Rows, kb: &K) -> Vec<u32> {
    let mut order: Vec<u32> = (0..rows.len() as u32).collect();
    order.sort_by(|&a, &b| cmp_canonical(plan, &rows[a as usize], &rows[b as usize], kb));
    order
}

/// `rows` in the canonical standing-view order.
fn canonical_sort<K: KbRead + ?Sized>(plan: &Plan, rows: &Rows, kb: &K) -> Rows {
    rows.gather(&canonical_order(plan, rows, kb))
}

/// Splices canonically sorted `added`/`removed` multisets into an
/// already-canonical block without re-sorting it: binary searches
/// locate every edit (O((a+r)·log n) cell comparisons — each of which
/// may resolve term strings, so keeping them off the O(n) path
/// matters), then one linear pass copies the rows into a new block.
/// This keeps per-install maintenance cost proportional to the delta,
/// not to the answer.
fn patch_sorted_rows<K: KbRead + ?Sized>(
    plan: &Plan,
    rows: &Rows,
    added: &Rows,
    removed: &Rows,
    kb: &K,
) -> Rows {
    use std::cmp::Ordering;
    // Removal indices. `removed` is sorted and is a sub-multiset of
    // `rows`; canonically equal rows are identical, so consecutive
    // duplicates take successive indices.
    let mut remove_at: Vec<usize> = Vec::with_capacity(removed.len());
    for r in removed.iter() {
        let lo = rows.partition_point(|x| cmp_canonical(plan, x, r, kb) == Ordering::Less);
        let i = lo.max(remove_at.last().map_or(0, |&l| l + 1));
        debug_assert!(i < rows.len() && rows[i] == *r, "removed row missing from the view");
        remove_at.push(i);
    }
    // Insertion points (non-decreasing, since `added` is sorted).
    let insert_at: Vec<usize> = added
        .iter()
        .map(|a| rows.partition_point(|x| cmp_canonical(plan, x, a, kb) == Ordering::Less))
        .collect();
    let mut out = Rows::with_capacity(plan.cols.len(), rows.len() + added.len() - removed.len());
    let (mut ai, mut ri) = (0, 0);
    for (i, row) in rows.iter().enumerate() {
        while ai < added.len() && insert_at[ai] == i {
            out.push(&added[ai]);
            ai += 1;
        }
        if ri < remove_at.len() && remove_at[ri] == i {
            ri += 1;
            continue;
        }
        out.push(row);
    }
    for a in ai..added.len() {
        out.push(&added[a]);
    }
    out
}

/// A query output re-sorted into canonical standing-view order —
/// the reference form the differential tests compare patched views
/// against.
pub fn canonical_output<K: KbRead + ?Sized>(plan: &Plan, out: &QueryOutput, kb: &K) -> QueryOutput {
    QueryOutput { cols: out.cols.clone(), rows: canonical_sort(plan, &out.rows, kb) }
}

// ---------------------------------------------------------------------
// Signed delta evaluation
// ---------------------------------------------------------------------

/// One triple-level change: the fact (with the span that was or becomes
/// visible) and its sign (+1 inserted, −1 retracted).
struct SignedFact {
    fact: Fact,
    sign: i64,
}

/// Lowers a delta segment to signed fact changes, resolving tombstones
/// and shadows against the *pre-install* view.
fn signed_changes<K: KbRead + ?Sized>(delta: &DeltaSegment, old: &K) -> Vec<SignedFact> {
    let mut out = Vec::with_capacity(delta.len());
    for (fact, kind) in delta.entries_iter() {
        match kind {
            FactKind::New => out.push(SignedFact { fact: fact.clone(), sign: 1 }),
            FactKind::Tombstone => {
                // The delta's tombstone entry carries no span; the
                // retraction removes the *visible* fact, span included.
                if let Some(seen) = old.fact_for(&fact.triple) {
                    out.push(SignedFact { fact: seen.clone(), sign: -1 });
                }
            }
            FactKind::Shadow => {
                // Shadows merge evidence. Confidence and provenance are
                // invisible to answers; only a span change (None →
                // Some, per the first-known-span merge rule) can move
                // query results.
                let old_fact = old.fact_for(&fact.triple);
                match old_fact {
                    Some(seen) if seen.span == fact.span => {}
                    Some(seen) => {
                        out.push(SignedFact { fact: seen.clone(), sign: -1 });
                        out.push(SignedFact { fact: fact.clone(), sign: 1 });
                    }
                    // Shadow over a fact the old view cannot see would
                    // violate the sequential-stacking contract; treat
                    // it as an insertion to stay conservative.
                    None => out.push(SignedFact { fact: fact.clone(), sign: 1 }),
                }
            }
        }
    }
    out
}

/// Whether a fact satisfies a step's temporal restriction: untimed
/// facts match every point, as in the executor's `@point` scan.
fn at_matches(step: &Step, fact: &Fact) -> bool {
    match step.at {
        None => true,
        Some(point) => fact.span.is_none_or(|sp| sp.contains(&point)),
    }
}

/// The incrementally-maintainable core of a plan.
#[derive(Debug, Clone)]
struct IncSpec {
    steps: Vec<Step>,
    filters: Vec<CondC>,
}

impl IncSpec {
    fn from_plan(plan: &Plan) -> Option<Self> {
        if !maintainability(plan).is_incremental() {
            return None;
        }
        let mut steps = Vec::new();
        let mut filters = Vec::new();
        flatten(&plan.root, &mut steps, &mut filters).ok()?;
        Some(IncSpec { steps, filters })
    }

    /// Folds every signed result row of the telescoped delta join into
    /// `state`: for each step position `i` and each sign, the changes
    /// of that sign seed step `i`, and the executor joins the seed rows
    /// with the steps after `i` over the *old* view and those before it
    /// over the *new* view.
    fn fold_delta<K: KbRead + ?Sized>(
        &self,
        plan: &Plan,
        changes: &[SignedFact],
        old: &K,
        new: &K,
        state: &mut ViewState,
        dirty: &mut DirtyLog,
    ) {
        for (i, step) in self.steps.iter().enumerate() {
            for sign in [1, -1] {
                let facts = changes
                    .iter()
                    .filter(|c| c.sign == sign && at_matches(step, &c.fact))
                    .map(|c| c.fact.triple);
                delta_join(&self.steps, i, plan.names.len(), facts, old, new, |get| {
                    // Filters resolve against the new view: its
                    // dictionary is a superset (term ids are
                    // append-only), so rows mixing old- and new-view
                    // bindings still resolve every id.
                    if self.filters.iter().all(|c| eval_cond_with(c, get, new)) {
                        fold_row(plan, state, dirty, get, sign);
                    }
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// View state
// ---------------------------------------------------------------------

/// Signed accumulator for one COUNT+GROUP BY group.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GroupAcc {
    /// One signed counter per COUNT column.
    counts: Vec<i64>,
    /// Total signed row multiplicity of the group; the group exists
    /// while this is positive.
    rows: i64,
}

/// The maintained state behind a standing view's materialized answer.
#[derive(Debug)]
enum ViewState {
    /// Plain SELECT: projected row → signed multiplicity.
    Rows(HashMap<Vec<Cell>, i64>),
    /// COUNT+GROUP BY: group key → signed accumulator.
    Groups(BTreeMap<Vec<Option<TermId>>, GroupAcc>),
    /// Fallback views keep no incremental state.
    Reexec,
}

/// Tracks pre-patch values of every state entry a patch touches, so
/// added/removed rows cost O(|delta result|), not O(|result|).
enum DirtyLog {
    Rows(HashMap<Vec<Cell>, i64>),
    Groups(HashMap<Vec<Option<TermId>>, Option<GroupAcc>>),
}

/// Folds one signed solution row into the view state, logging the
/// pre-patch value of every entry it touches.
fn fold_row(
    plan: &Plan,
    state: &mut ViewState,
    dirty: &mut DirtyLog,
    get: &dyn Fn(usize) -> Option<TermId>,
    sign: i64,
) {
    match (state, dirty) {
        (ViewState::Rows(counts), DirtyLog::Rows(log)) => {
            let row: Vec<Cell> = project_row(plan, get).collect();
            if !log.contains_key(&row) {
                log.insert(row.clone(), counts.get(&row).copied().unwrap_or(0));
            }
            let c = counts.entry(row).or_insert(0);
            *c += sign;
        }
        (ViewState::Groups(groups), DirtyLog::Groups(log)) => {
            let key: Vec<Option<TermId>> = plan.group_by.iter().map(|&s| get(s)).collect();
            if !log.contains_key(&key) {
                log.insert(key.clone(), groups.get(&key).cloned());
            }
            let n_counts = plan.cols.iter().filter(|c| matches!(c, Col::Count { .. })).count();
            let acc = groups
                .entry(key)
                .or_insert_with(|| GroupAcc { counts: vec![0; n_counts], rows: 0 });
            acc.rows += sign;
            let mut ci = 0;
            for c in &plan.cols {
                if let Col::Count { arg, .. } = c {
                    let counted = match arg {
                        None => true,
                        Some(slot) => get(*slot).is_some(),
                    };
                    if counted {
                        acc.counts[ci] += sign;
                    }
                    ci += 1;
                }
            }
        }
        _ => unreachable!("state and dirty log always share a variant"),
    }
}

/// The accumulator of a group that exists (`rows > 0`).
fn live(acc: Option<&GroupAcc>) -> Option<&GroupAcc> {
    acc.filter(|acc| acc.rows > 0)
}

/// Appends the output row of an existing group to `rows`.
fn push_group_row(plan: &Plan, rows: &mut Rows, key: &[Option<TermId>], acc: &GroupAcc) {
    push_group(
        plan,
        rows,
        |i| key[i],
        |i| {
            debug_assert!(acc.counts[i] >= 0, "negative group count after patch");
            acc.counts[i].max(0) as u64
        },
    );
}

/// Rebuilds the canonical materialized rows from the view state.
fn materialize<K: KbRead + ?Sized>(plan: &Plan, state: &ViewState, kb: &K) -> Rows {
    let mut rows = Rows::new(plan.cols.len());
    match state {
        ViewState::Rows(counts) => {
            for (row, &c) in counts {
                debug_assert!(c >= 0, "negative row multiplicity after patch");
                let copies = if plan.distinct { i64::from(c > 0) } else { c.max(0) };
                for _ in 0..copies {
                    rows.push(row);
                }
            }
        }
        ViewState::Groups(groups) => {
            for (key, acc) in groups {
                if acc.rows > 0 {
                    push_group_row(plan, &mut rows, key, acc);
                }
            }
            if plan.distinct {
                let mut order = canonical_order(plan, &rows, kb);
                order.dedup_by(|a, b| rows[*a as usize] == rows[*b as usize]);
                return rows.gather(&order);
            }
        }
        ViewState::Reexec => unreachable!("fallback views never materialize from state"),
    }
    canonical_sort(plan, &rows, kb)
}

/// Drains the dirty log into (added, removed) row blocks, canonically
/// sorted.
fn drain_dirty<K: KbRead + ?Sized>(
    plan: &Plan,
    state: &ViewState,
    dirty: DirtyLog,
    kb: &K,
) -> (Rows, Rows) {
    let mut added = Rows::new(plan.cols.len());
    let mut removed = Rows::new(plan.cols.len());
    match (state, dirty) {
        (ViewState::Rows(counts), DirtyLog::Rows(log)) => {
            for (row, before) in log {
                let after = counts.get(&row).copied().unwrap_or(0);
                let (b, a) = if plan.distinct {
                    (i64::from(before > 0), i64::from(after > 0))
                } else {
                    (before.max(0), after.max(0))
                };
                for _ in 0..(a - b).max(0) {
                    added.push(&row);
                }
                for _ in 0..(b - a).max(0) {
                    removed.push(&row);
                }
            }
        }
        (ViewState::Groups(groups), DirtyLog::Groups(log)) => {
            for (key, before) in log {
                // A group's row is its key and its counts: it changed
                // when the group came or went, or a count moved.
                let (before, after) = (live(before.as_ref()), live(groups.get(&key)));
                if before.map(|acc| &acc.counts) != after.map(|acc| &acc.counts) {
                    if let Some(acc) = before {
                        push_group_row(plan, &mut removed, &key, acc);
                    }
                    if let Some(acc) = after {
                        push_group_row(plan, &mut added, &key, acc);
                    }
                }
            }
        }
        _ => unreachable!("state and dirty log always share a variant"),
    }
    // Two groups whose keys differ only in columns the view does not
    // project can leave and enter as one row: what is left of both
    // lists once equal rows cancel is the diff.
    let (added, removed) = (canonical_sort(plan, &added, kb), canonical_sort(plan, &removed, kb));
    diff_rows(plan, &removed, &added, kb)
}

// ---------------------------------------------------------------------
// Initial state
// ---------------------------------------------------------------------

/// Builds a projection-only clone of `plan` (no DISTINCT / ORDER /
/// LIMIT / aggregation) whose columns expose exactly the slots the
/// state fold needs, plus the slot each synthesized column reads.
/// Running it through the vectorized executor yields the raw solution
/// multiset the initial state folds from.
fn feed_plan(plan: &Plan) -> (Plan, Vec<usize>) {
    let mut slots: Vec<usize> = Vec::new();
    let mut want = |s: usize| {
        if !slots.contains(&s) {
            slots.push(s);
        }
    };
    if plan.aggregate {
        for &s in &plan.group_by {
            want(s);
        }
        for c in &plan.cols {
            match c {
                Col::Var(slot) => want(*slot),
                Col::Count { arg: Some(slot), .. } => want(*slot),
                Col::Count { arg: None, .. } => {}
            }
        }
    } else {
        for c in &plan.cols {
            if let Col::Var(slot) = c {
                want(*slot);
            }
        }
    }
    let cols = slots.iter().map(|&s| Col::Var(s)).collect();
    let feed = Plan {
        names: plan.names.clone(),
        root: plan.root.clone(),
        cols,
        distinct: false,
        group_by: Vec::new(),
        aggregate: false,
        group_cols: Vec::new(),
        order_by: Vec::new(),
        limit: None,
        offset: 0,
        est_cost: plan.est_cost,
        est_rows: plan.est_rows.clone(),
        footprint: plan.footprint.clone(),
    };
    (feed, slots)
}

fn initial_state<K: KbRead + ?Sized>(plan: &Plan, kb: &K) -> ViewState {
    let mut state = if plan.aggregate {
        ViewState::Groups(BTreeMap::new())
    } else {
        ViewState::Rows(HashMap::new())
    };
    let mut dirty = match state {
        ViewState::Rows(_) => DirtyLog::Rows(HashMap::new()),
        _ => DirtyLog::Groups(HashMap::new()),
    };
    let (feed, slots) = feed_plan(plan);
    let raw = execute(&feed, kb);
    for row in raw.rows.iter() {
        let get = |s: usize| -> Option<TermId> {
            slots.iter().position(|&x| x == s).and_then(|i| match row[i].value() {
                CellValue::Term(id) => Some(id),
                _ => None,
            })
        };
        fold_row(plan, &mut state, &mut dirty, &get, 1);
    }
    state
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// One materialized standing view.
struct StandingView {
    id: ViewId,
    /// Normalized query text (re-planned on fallback maintenance).
    text: String,
    plan: Arc<Plan>,
    spec: Option<IncSpec>,
    state: ViewState,
    output: Arc<QueryOutput>,
}

impl StandingView {
    /// Plans `parsed` against `kb` and materializes its answer from
    /// scratch.
    fn build<K: KbRead + ?Sized>(
        id: ViewId,
        parsed: &SelectQuery,
        kb: &K,
        stats: &StatsCatalog,
    ) -> Result<Self, QueryError> {
        let plan = Arc::new(compile(parsed, kb, stats)?);
        let spec = IncSpec::from_plan(&plan);
        let state = match spec {
            Some(_) => initial_state(&plan, kb),
            None => ViewState::Reexec,
        };
        let output = match &state {
            ViewState::Reexec => Arc::new(canonical_output(&plan, &execute(&plan, kb), kb)),
            state => Arc::new(QueryOutput {
                cols: plan.columns().iter().map(|c| c.to_string()).collect(),
                rows: materialize(&plan, state, kb),
            }),
        };
        Ok(StandingView { id, text: parsed.to_string(), plan, spec, state, output })
    }
}

/// One consistent post-install update for one standing view.
#[derive(Debug, Clone)]
pub struct ViewUpdate {
    /// The view this update patches.
    pub id: ViewId,
    /// The view's normalized query text.
    pub query: String,
    /// Rows that entered the answer, canonically sorted.
    pub added: Rows,
    /// Rows that left the answer, canonically sorted.
    pub removed: Rows,
    /// The full patched answer after this install (a consistent
    /// snapshot — slow subscribers resync from here after a
    /// `ViewLag`).
    pub output: Arc<QueryOutput>,
    /// True when the answer was delta-patched; false when the plan
    /// shape forced a full re-execution.
    pub patched: bool,
    /// Maintenance latency for this view on this install, in
    /// microseconds (per the owning registry's clock).
    pub patch_us: u64,
}

impl ViewUpdate {
    /// Whether the install actually changed this view's answer.
    pub fn changed(&self) -> bool {
        !self.added.is_empty() || !self.removed.is_empty()
    }
}

/// The registry's owned metric instances (`view.*`).
struct ViewMetrics {
    registered: Arc<Gauge>,
    delta_patched: Arc<Counter>,
    reexecuted: Arc<Counter>,
    patch_us: Arc<Histogram>,
    clock: Arc<dyn Clock>,
}

impl ViewMetrics {
    fn publish(registry: &Registry) -> Self {
        let g = Arc::new(Gauge::new());
        registry.register_gauge("view.registered", Arc::clone(&g));
        let counter = |name: &str| {
            let c = Arc::new(Counter::new());
            registry.register_counter(name, Arc::clone(&c));
            c
        };
        let h = Arc::new(Histogram::latency());
        registry.register_histogram("view.patch_us", Arc::clone(&h));
        ViewMetrics {
            registered: g,
            delta_patched: counter("view.delta_patched"),
            reexecuted: counter("view.reexecuted"),
            patch_us: h,
            clock: registry.clock(),
        }
    }
}

/// A set of materialized standing views maintained across delta
/// installs. See the module docs for the maintenance algebra.
///
/// The registry is passive: its owner calls
/// [`apply_delta`](ViewRegistry::apply_delta) with the installed
/// segment plus the pre- and post-install views, under whatever lock
/// already serializes installs (the query service's lock,
/// the router's epoch barrier) — so every update batch is consistent
/// with exactly one install.
pub struct ViewRegistry {
    next_id: u64,
    views: Vec<StandingView>,
    metrics: ViewMetrics,
}

impl ViewRegistry {
    /// An empty registry publishing `view.*` metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        ViewRegistry { next_id: 0, views: Vec::new(), metrics: ViewMetrics::publish(registry) }
    }

    /// Registers `text` as a standing view over `kb`, materializing its
    /// initial answer. Returns the view's handle.
    pub fn register<K: KbRead + ?Sized>(
        &mut self,
        text: &str,
        kb: &K,
        stats: &StatsCatalog,
    ) -> Result<ViewId, QueryError> {
        let id = ViewId(self.next_id);
        self.views.push(StandingView::build(id, &parse(text)?, kb, stats)?);
        self.next_id += 1;
        self.metrics.registered.set(self.views.len() as i64);
        Ok(id)
    }

    /// Removes a view; returns whether it existed.
    pub fn unregister(&mut self, id: ViewId) -> bool {
        let before = self.views.len();
        self.views.retain(|v| v.id != id);
        self.metrics.registered.set(self.views.len() as i64);
        self.views.len() < before
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Whether no views are registered.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The registered view ids, in registration order.
    pub fn ids(&self) -> Vec<ViewId> {
        self.views.iter().map(|v| v.id).collect()
    }

    /// The view's current materialized answer.
    pub fn result(&self, id: ViewId) -> Option<Arc<QueryOutput>> {
        self.views.iter().find(|v| v.id == id).map(|v| Arc::clone(&v.output))
    }

    /// The view's compiled plan.
    pub fn plan(&self, id: ViewId) -> Option<Arc<Plan>> {
        self.views.iter().find(|v| v.id == id).map(|v| Arc::clone(&v.plan))
    }

    /// The view's normalized query text.
    pub fn query_text(&self, id: ViewId) -> Option<&str> {
        self.views.iter().find(|v| v.id == id).map(|v| v.text.as_str())
    }

    /// Maintains every registered view across one delta install: `old`
    /// is the view the delta was frozen against, `new` the view with
    /// the delta stacked, `stats` the post-install planner catalog
    /// (fallback views re-plan against it). Returns one consistent
    /// [`ViewUpdate`] per view whose footprint the delta touches, in
    /// registration order.
    pub fn apply_delta<K: KbRead + ?Sized>(
        &mut self,
        delta: &DeltaSegment,
        old: &K,
        new: &K,
        stats: &StatsCatalog,
    ) -> Vec<ViewUpdate> {
        if self.views.is_empty() {
            return Vec::new();
        }
        let touched = delta.touched_predicates();
        let changes: Vec<SignedFact> = if self
            .views
            .iter()
            .any(|v| v.spec.is_some() && v.plan.footprint().is_touched_by(touched))
        {
            signed_changes(delta, old)
        } else {
            Vec::new()
        };
        let mut updates = Vec::new();
        for view in &mut self.views {
            if !view.plan.footprint().is_touched_by(touched) {
                continue;
            }
            let span = SpanTimer::start(
                Arc::clone(&self.metrics.clock),
                Arc::clone(&self.metrics.patch_us),
            );
            let (added, removed, output, patched) = match &view.spec {
                Some(spec) => {
                    let plan = Arc::clone(&view.plan);
                    let mut dirty = match view.state {
                        ViewState::Rows(_) => DirtyLog::Rows(HashMap::new()),
                        _ => DirtyLog::Groups(HashMap::new()),
                    };
                    spec.fold_delta(&plan, &changes, old, new, &mut view.state, &mut dirty);
                    let cols = view.output.cols.clone();
                    // DISTINCT over a grouped view can merge identical
                    // rows produced by different group keys; only a
                    // full rebuild sees across groups, and only a diff
                    // of the two answers says which rows the merge
                    // left changed. Everything else splices the
                    // (delta-sized) diff into the previous sorted
                    // answer.
                    if plan.distinct && matches!(view.state, ViewState::Groups(_)) {
                        let output =
                            QueryOutput { cols, rows: materialize(&plan, &view.state, new) };
                        let (added, removed) =
                            diff_rows(&plan, &view.output.rows, &output.rows, new);
                        (added, removed, Arc::new(output), true)
                    } else {
                        let (added, removed) = drain_dirty(&plan, &view.state, dirty, new);
                        let rows =
                            patch_sorted_rows(&plan, &view.output.rows, &added, &removed, new);
                        (added, removed, Arc::new(QueryOutput { cols, rows }), true)
                    }
                }
                None => {
                    // Fallback: re-plan from the normalized text so
                    // constants interned by this delta resolve, then
                    // re-execute and diff against the previous answer.
                    let parsed = parse(&view.text).expect("normalized text always re-parses");
                    let plan = compile(&parsed, new, stats).map(Arc::new);
                    let plan = match plan {
                        Ok(p) => {
                            view.plan = Arc::clone(&p);
                            p
                        }
                        Err(_) => Arc::clone(&view.plan),
                    };
                    let fresh = canonical_output(&plan, &execute(&plan, new), new);
                    let (added, removed) = diff_rows(&plan, &view.output.rows, &fresh.rows, new);
                    (added, removed, Arc::new(fresh), false)
                }
            };
            let patch_us = span.stop();
            if patched {
                self.metrics.delta_patched.inc();
            } else {
                self.metrics.reexecuted.inc();
            }
            view.output = Arc::clone(&output);
            updates.push(ViewUpdate {
                id: view.id,
                query: view.text.clone(),
                added,
                removed,
                output,
                patched,
                patch_us,
            });
        }
        updates
    }
}

/// Multiset difference of two canonical row blocks: rows in `after`
/// but not `before` (added) and vice versa (removed). Both inputs are
/// sorted by [`cmp_canonical`] — ORDER BY keys first, possibly
/// descending — so one merge pass stepping by that same order suffices.
fn diff_rows<K: KbRead + ?Sized>(plan: &Plan, before: &Rows, after: &Rows, kb: &K) -> (Rows, Rows) {
    let mut added = Rows::new(plan.cols.len());
    let mut removed = Rows::new(plan.cols.len());
    let (mut i, mut j) = (0, 0);
    while i < before.len() && j < after.len() {
        if before[i] == after[j] {
            i += 1;
            j += 1;
            continue;
        }
        match cmp_canonical(plan, &before[i], &after[j], kb) {
            std::cmp::Ordering::Less => {
                removed.push(&before[i]);
                i += 1;
            }
            _ => {
                added.push(&after[j]);
                j += 1;
            }
        }
    }
    for r in i..before.len() {
        removed.push(&before[r]);
    }
    for r in j..after.len() {
        added.push(&after[r]);
    }
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::{KbBuilder, SegmentedSnapshot, TimeSpan, Triple};
    use proptest::prelude::*;

    fn base() -> SegmentedSnapshot {
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
        b.assert_str("Steve_Wozniak", "bornIn", "San_Jose");
        b.assert_str("San_Francisco", "locatedIn", "California");
        b.assert_str("San_Jose", "locatedIn", "California");
        b.assert_str("Tim_Berners_Lee", "bornIn", "London");
        b.assert_str("London", "locatedIn", "England");
        SegmentedSnapshot::from_base(b.freeze().into_shared())
    }

    /// Whether `register` classified the view as delta-patchable.
    fn incremental(reg: &ViewRegistry, id: ViewId) -> bool {
        maintainability(&reg.plan(id).unwrap()).is_incremental()
    }

    fn check_against_reexec(reg: &ViewRegistry, id: ViewId, view: &SegmentedSnapshot) {
        let plan = reg.plan(id).unwrap();
        let reexec = canonical_output(&plan, &execute(&plan, view), view);
        assert_eq!(
            reg.result(id).unwrap().as_ref(),
            &reexec,
            "patched answer diverged from re-execution for {:?}",
            reg.query_text(id)
        );
    }

    #[test]
    fn select_view_patches_insertions_and_retractions() {
        let old = base();
        let stats = StatsCatalog::build(&old);
        let mut reg = ViewRegistry::new(&Registry::new());
        let id = reg
            .register("SELECT ?p ?c WHERE { ?p bornIn ?c . ?c locatedIn California }", &old, &stats)
            .unwrap();
        assert_eq!(reg.result(id).unwrap().rows.len(), 2);
        assert!(incremental(&reg, id));

        // Insert one matching person, retract another.
        let mut b = KbBuilder::new();
        b.assert_str("Jerry_Brown", "bornIn", "San_Francisco");
        b.retract_str("Steve_Wozniak", "bornIn", "San_Jose");
        let delta = Arc::new(b.freeze_delta(&old));
        let new = old.with_delta(Arc::clone(&delta));
        let new_stats = stats.merged_with_delta(&delta);
        let updates = reg.apply_delta(delta.as_ref(), &old, &new, &new_stats);
        assert_eq!(updates.len(), 1);
        assert!(updates[0].patched);
        assert_eq!(updates[0].added.len(), 1);
        assert_eq!(updates[0].removed.len(), 1);
        assert_eq!(reg.result(id).unwrap().rows.len(), 2);
        check_against_reexec(&reg, id, &new);
    }

    /// The first cells of `rows`, as text.
    fn first_cells(rows: &Rows, kb: &SegmentedSnapshot) -> Vec<String> {
        rows.iter().map(|r| crate::cell_str(&r[0], kb).into_owned()).collect()
    }

    #[test]
    fn time_point_views_seed_from_the_span_each_change_carries() {
        let works_at = |b: &mut KbBuilder, s: &str, o: &str, span: Option<&str>| {
            let triple = Triple::new(b.intern(s), b.intern("worksAt"), b.intern(o));
            let span = span.map(|text| TimeSpan::parse(text).unwrap());
            b.add_fact(Fact { span, ..Fact::asserted(triple) });
        };
        let mut b = KbBuilder::new();
        works_at(&mut b, "Alice", "Acme", Some("[1980,1990]"));
        works_at(&mut b, "Bob", "Acme", Some("[1995,2000]"));
        works_at(&mut b, "Carol", "Acme", None);
        works_at(&mut b, "Dave", "Initech", None);
        b.assert_str("Acme", "locatedIn", "Cupertino");
        b.assert_str("Initech", "locatedIn", "Austin");
        let old = SegmentedSnapshot::from_base(b.freeze().into_shared());
        let stats = StatsCatalog::build(&old);
        let mut reg = ViewRegistry::new(&Registry::new());
        let text = "SELECT ?p ?w WHERE { ?p worksAt ?c @1985 . ?c locatedIn ?w }";
        let id = reg.register(text, &old, &stats).unwrap();
        assert!(incremental(&reg, id));
        assert_eq!(first_cells(&reg.result(id).unwrap().rows, &old), ["Alice", "Carol", "Dave"]);

        // Alice's spanned fact is retracted, and so is Bob's, which never
        // held in 1985. Carol's and Dave's unspanned facts take spans:
        // Carol's leaves 1985, Dave's keeps it.
        let mut b = KbBuilder::new();
        b.retract_str("Alice", "worksAt", "Acme");
        b.retract_str("Bob", "worksAt", "Acme");
        works_at(&mut b, "Carol", "Acme", Some("[1990,2000]"));
        works_at(&mut b, "Dave", "Initech", Some("[1980,1986]"));
        let delta = Arc::new(b.freeze_delta(&old));
        let new = old.with_delta(Arc::clone(&delta));
        let new_stats = stats.merged_with_delta(&delta);
        let updates = reg.apply_delta(delta.as_ref(), &old, &new, &new_stats);
        assert!(updates[0].patched);
        check_against_reexec(&reg, id, &new);
        assert_eq!(first_cells(&updates[0].removed, &new), ["Alice", "Carol"]);
        assert!(updates[0].added.is_empty(), "{:?}", updates[0].added);
        assert_eq!(first_cells(&reg.result(id).unwrap().rows, &new), ["Dave"]);
    }

    #[test]
    fn count_group_by_view_reaggregates() {
        let old = base();
        let stats = StatsCatalog::build(&old);
        let mut reg = ViewRegistry::new(&Registry::new());
        let id = reg
            .register(
                "SELECT ?c COUNT(?p) AS ?n WHERE { ?p bornIn ?c } GROUP BY ?c ORDER BY ?c",
                &old,
                &stats,
            )
            .unwrap();
        assert_eq!(reg.result(id).unwrap().rows.len(), 3);

        let mut b = KbBuilder::new();
        b.assert_str("Jerry_Brown", "bornIn", "San_Francisco");
        b.assert_str("Grace_Hopper", "bornIn", "New_York");
        b.retract_str("Tim_Berners_Lee", "bornIn", "London");
        let delta = Arc::new(b.freeze_delta(&old));
        let new = old.with_delta(Arc::clone(&delta));
        let new_stats = stats.merged_with_delta(&delta);
        let updates = reg.apply_delta(delta.as_ref(), &old, &new, &new_stats);
        assert!(updates[0].patched);
        // San_Francisco count 1→2, New_York appears, London disappears.
        check_against_reexec(&reg, id, &new);
        let out = reg.result(id).unwrap();
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn untouched_views_get_no_update() {
        let old = base();
        let stats = StatsCatalog::build(&old);
        let mut reg = ViewRegistry::new(&Registry::new());
        reg.register("SELECT ?p WHERE { ?p bornIn ?c }", &old, &stats).unwrap();

        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "founded", "Apple_Inc");
        let delta = Arc::new(b.freeze_delta(&old));
        let new = old.with_delta(Arc::clone(&delta));
        let new_stats = stats.merged_with_delta(&delta);
        let updates = reg.apply_delta(delta.as_ref(), &old, &new, &new_stats);
        assert!(updates.is_empty(), "disjoint-footprint views must not be maintained");
    }

    #[test]
    fn optional_and_limit_views_fall_back() {
        let view = base();
        let stats = StatsCatalog::build(&view);
        let mut reg = ViewRegistry::new(&Registry::new());
        let opt = reg
            .register(
                "SELECT ?p ?co WHERE { ?p bornIn ?c OPTIONAL { ?p founded ?co } }",
                &view,
                &stats,
            )
            .unwrap();
        let lim = reg
            .register("SELECT ?p WHERE { ?p bornIn ?c } ORDER BY ?p LIMIT 1", &view, &stats)
            .unwrap();
        let desc = reg
            .register("SELECT ?p WHERE { ?p bornIn ?c } ORDER BY DESC(?p) LIMIT 10", &view, &stats)
            .unwrap();
        assert!(!incremental(&reg, opt));
        assert!(!incremental(&reg, lim));

        let mut b = KbBuilder::new();
        b.assert_str("Ada_Lovelace", "bornIn", "London");
        b.assert_str("Steve_Martin", "bornIn", "London");
        let delta = Arc::new(b.freeze_delta(&view));
        let new = view.with_delta(Arc::clone(&delta));
        let new_stats = stats.merged_with_delta(&delta);
        let updates = reg.apply_delta(delta.as_ref(), &view, &new, &new_stats);
        assert_eq!(updates.len(), 3);
        assert!(updates.iter().all(|u| !u.patched), "fallback views re-execute");
        check_against_reexec(&reg, opt, &new);
        check_against_reexec(&reg, lim, &new);

        // Surviving rows of the descending view are neither removed nor
        // added. Fails when `diff_rows` steps in ascending order: added
        // = [Steve_Martin, Steve_Jobs, Ada_Lovelace], removed =
        // [Steve_Jobs].
        check_against_reexec(&reg, desc, &new);
        let update = updates.iter().find(|u| u.id == desc).expect("the view is touched");
        let added: Vec<_> = update.added.iter().map(|r| crate::cell_str(&r[0], &new)).collect();
        assert_eq!(added, ["Steve_Martin", "Ada_Lovelace"]);
        assert!(update.removed.is_empty(), "{:?}", update.removed);
    }

    #[test]
    fn fallback_view_sees_constants_interned_by_the_delta() {
        let view = base();
        let stats = StatsCatalog::build(&view);
        let mut reg = ViewRegistry::new(&Registry::new());
        // `Atlantis` is unknown at registration: the plan is Empty and
        // wildcard, so the view must fall back — and start answering
        // once a delta interns the constant.
        let id = reg.register("SELECT ?p WHERE { ?p bornIn Atlantis }", &view, &stats).unwrap();
        assert!(!incremental(&reg, id));
        assert!(reg.result(id).unwrap().rows.is_empty());

        let mut b = KbBuilder::new();
        b.assert_str("Plato", "bornIn", "Atlantis");
        let delta = Arc::new(b.freeze_delta(&view));
        let new = view.with_delta(Arc::clone(&delta));
        let new_stats = stats.merged_with_delta(&delta);
        let updates = reg.apply_delta(delta.as_ref(), &view, &new, &new_stats);
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].added.len(), 1);
        assert_eq!(reg.result(id).unwrap().rows.len(), 1);
    }

    #[test]
    fn distinct_and_filter_views_stay_exact_across_chained_deltas() {
        let mut view = base();
        let mut stats = StatsCatalog::build(&view);
        let mut reg = ViewRegistry::new(&Registry::new());
        let id = reg
            .register(
                "SELECT DISTINCT ?c WHERE { ?p bornIn ?c . ?c locatedIn ?st . FILTER(?st != England) }",
                &view,
                &stats,
            )
            .unwrap();
        assert!(incremental(&reg, id));

        for round in 0..3 {
            let mut b = KbBuilder::new();
            b.assert_str(&format!("person_{round}"), "bornIn", "San_Jose");
            if round == 1 {
                b.retract_str("Steve_Jobs", "bornIn", "San_Francisco");
            }
            let delta = Arc::new(b.freeze_delta(&view));
            let new = view.with_delta(Arc::clone(&delta));
            let new_stats = stats.merged_with_delta(&delta);
            reg.apply_delta(delta.as_ref(), &view, &new, &new_stats);
            check_against_reexec(&reg, id, &new);
            view = new;
            stats = new_stats;
        }
    }

    #[test]
    fn registry_metrics_track_patches_and_fallbacks() {
        let registry = Registry::new();
        let view = base();
        let stats = StatsCatalog::build(&view);
        let mut reg = ViewRegistry::new(&registry);
        reg.register("SELECT ?p WHERE { ?p bornIn ?c }", &view, &stats).unwrap();
        reg.register("SELECT ?p WHERE { ?p bornIn ?c } LIMIT 1", &view, &stats).unwrap();
        assert_eq!(registry.gauge("view.registered").get(), 2);

        let mut b = KbBuilder::new();
        b.assert_str("Ada_Lovelace", "bornIn", "London");
        let delta = Arc::new(b.freeze_delta(&view));
        let new = view.with_delta(Arc::clone(&delta));
        let new_stats = stats.merged_with_delta(&delta);
        reg.apply_delta(delta.as_ref(), &view, &new, &new_stats);
        assert_eq!(registry.counter("view.delta_patched").get(), 1);
        assert_eq!(registry.counter("view.reexecuted").get(), 1);
        assert_eq!(registry.histogram("view.patch_us").count(), 2);
    }

    /// The plans of the diff/patch round trip: widths 0, 1 and 3, in
    /// total row order or under ORDER BY keys, descending ones included.
    const ROUND_TRIP_PLANS: [&str; 5] = [
        "SELECT * WHERE { a p b }",
        "SELECT ?x WHERE { ?x p ?y }",
        "SELECT ?x WHERE { ?x p ?y } ORDER BY DESC(?x)",
        "SELECT ?x ?y ?z WHERE { ?x p ?y . ?y p ?z }",
        "SELECT ?x ?y ?z WHERE { ?x p ?y . ?y p ?z } ORDER BY DESC(?y) ?x",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Patching a canonical block with the diff between it and
        /// another gives the other, for multisets of rows drawn from a
        /// pool of five, so duplicates are common. The cells mix terms
        /// that one value names twice (`1969`, `01969`), counts and
        /// unbound cells.
        #[test]
        fn patching_with_the_diff_of_two_blocks_gives_the_second(
            shape in 0usize..ROUND_TRIP_PLANS.len(),
            pool in prop::collection::vec(prop::collection::vec(0usize..7, 3usize), 5usize),
            before in prop::collection::vec(0usize..5, 0..10),
            after in prop::collection::vec(0usize..5, 0..10),
        ) {
            let mut kb = KbBuilder::new();
            for (s, o) in [("1969", "01969"), ("a", "b")] {
                kb.assert_str(s, "p", o);
            }
            let term = |t: &str| Cell::term(kb.term(t).unwrap());
            let cells = [
                term("1969"),
                term("01969"),
                term("a"),
                term("b"),
                Cell::count(2),
                Cell::count(10),
                Cell::UNBOUND,
            ];
            let stats = StatsCatalog::build(&kb);
            let plan = compile(&parse(ROUND_TRIP_PLANS[shape]).unwrap(), &kb, &stats).unwrap();
            let width = plan.cols.len();
            let block = |picks: &[usize]| {
                let mut rows = Rows::new(width);
                for &i in picks {
                    let row: Vec<Cell> = pool[i][..width].iter().map(|&c| cells[c]).collect();
                    rows.push(&row);
                }
                let cols = plan.columns().iter().map(|c| c.to_string()).collect();
                canonical_output(&plan, &QueryOutput { cols, rows }, &kb)
            };
            let (before, after) = (block(&before), block(&after));
            let (added, removed) = diff_rows(&plan, &before.rows, &after.rows, &kb);
            let both = added.iter().find(|a| removed.iter().any(|r| r == *a));
            prop_assert!(both.is_none(), "{both:?} is added and removed");
            prop_assert_eq!(patch_sorted_rows(&plan, &before.rows, &added, &removed, &kb), after.rows);
        }
    }
}
