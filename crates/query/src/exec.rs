//! Vectorized push-based executor for physical [`Plan`]s.
//!
//! Execution walks the operator tree batch-at-a-time: operators consume
//! and produce columnar `Batch`es (one `u32` column per variable slot, a
//! sentinel marking unbound slots), and scans splice the store's own
//! [`TripleBatch`] columns straight into the output — no per-row
//! iterator step on the hot path. A scan step flushes its batch once it
//! holds [`BATCH_ROWS`] bindings, checked after each store batch of up
//! to as many is appended, so a batch holds at most `2 · BATCH_ROWS −
//! 1` bindings.
//! Filters evaluate into a bitmap and compact the batch in place.
//! Emission order is depth-first — everything one input row produces
//! comes out before anything the next one does — whatever the batch
//! boundaries. That order is the executor's own contract: `LIMIT`
//! without `ORDER BY` and the suites that hold segmented, paged and
//! partitioned answers byte-identical to monolithic ones rely on it.
//! What the answers *are* is checked against the naive reference model
//! of the dev-only `kb-testkit` crate (`tests/differential.rs`).
//!
//! COUNT…GROUP BY is one more batch operator, the sink (`Aggregator`):
//! it reads the root's batches column by column, keeps group keys as
//! fixed-width `u32` rows in one flat vector and counters in another.
//! A row that repeats the key of the row before it takes that row's
//! group. A new key above the last group's is appended with no hash and
//! no probe: it cannot name an older group, so while keys ascend — as
//! an index scan grouped by its leading column delivers them — there is
//! no index at all. The first key below the last group's builds an
//! open-addressing index of group ids once, from the flat keys, and
//! every later key finds its group through it.
//! Groups leave in ascending key order, an unbound component before
//! every term: the second half of the order contract, with the same
//! dependants. Group ids are sorted by key once at the end, unless
//! their keys arrived ascending. An output cell is a key component or a
//! count (the planner rejects a projected variable that is not a GROUP
//! BY key), so a group remembers nothing but the two.
//!
//! A scan step answers an input row by an index lookup: one range
//! cursor a row. A step whose pattern has a constant predicate, no
//! `@point` and two different variables, of which the row binds exactly
//! one, may instead answer it from a `ProbeTable`: the predicate's
//! whole run, scanned once into flat vectors — a `KeyTable` (the
//! aggregator's own) over the bound end, the other end's values grouped
//! per key in scan order — and spliced columnar into the output, a
//! slice a row. Whether and when is the executor's decision, from
//! counts it holds (`RUN_ROWS_PER_ROW_SEEN`): the step keeps to the
//! index until the run is at most eight times the rows it has been
//! handed, then builds, and uses the table for every later row, batch
//! and re-entry (a LEFT JOIN or UNION re-enters its right side row by
//! row) of that execution. The planner knows nothing of it and a plan
//! has no operator for it; the lookup path is the one every other row
//! takes. A table changes no answer and no order: the run streams by
//! (object, subject), so a key's values come in the order its own
//! lookup yields them, in the same batches, and the merged scan of a
//! segmented or partitioned view has settled newest-wins and tombstones
//! before the table sees a row. What a step carries between calls — the
//! table, its counts, scratch batches — lives in a per-execution
//! context, one entry an operator slot, beside the trace.
//!
//! The scan step is the only join there is. A standing view joins its
//! deltas through it too (`delta_join`): the delta facts that bind one
//! step of its pipeline become a batch of seed rows, which the steps
//! after it join over the view before the install and the steps before
//! it over the view after.
//!
//! The executor is generic over any [`KbRead`] view, so the same
//! compiled plan runs against the mutable builder, an immutable
//! snapshot, or a segmented stack; only the monolithic unfiltered scan
//! path is specially vectorized by the store, the rest degrade to a
//! tuple merge inside [`kb_store::MatchBatches`] without changing
//! results.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher as _};

use kb_store::FxHasher;
use kb_store::{KbRead, KbReadBatch, TermId, TimePoint, Triple, TripleBatch, TriplePattern};

use crate::ast::CmpOp;
use crate::plan::{op_slots, Col, CondC, CondOperand, GroupCol, PhysOp, Plan, Slot, Step};

/// Batch granularity of the executor, re-exported from the store so the
/// two layers stay in lock-step.
pub(crate) use kb_store::BATCH_ROWS;

/// One projected value in one 8-byte word: a term id in the low 32
/// bits, or a count, marked by the top bit, in the other 63 bits, or
/// [`UNBOUND`](Self::UNBOUND), a value above every `u32` without the
/// mark. Only this type's own `impl` knows the
/// layout: cells are built by [`term`](Self::term),
/// [`count`](Self::count) and `UNBOUND`, and read by
/// [`value`](Self::value). Equality and hashing are the word's, which
/// tell exactly the cells that hold different values apart.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cell(u64);

/// What a [`Cell`] holds, as [`Cell::value`] hands it out to `match`
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellValue {
    /// A bound term.
    Term(TermId),
    /// An aggregate count.
    Count(u64),
    /// An unbound variable (possible under `OPTIONAL` and `UNION`).
    Unbound,
}

// A cell is one word: a `Rows` block of n cells is 8n bytes.
const _: () = assert!(std::mem::size_of::<Cell>() == 8);

impl Cell {
    /// The bit that marks a count.
    const COUNT_TAG: u64 = 1 << 63;

    /// The largest count a cell holds.
    const MAX_COUNT: u64 = Self::COUNT_TAG - 1;

    /// An unbound variable.
    pub const UNBOUND: Cell = Cell(1 << 32);

    /// A bound term.
    pub const fn term(id: TermId) -> Cell {
        Cell(id.0 as u64)
    }

    /// An aggregate count.
    ///
    /// # Panics
    /// If `n` is above 2^63 − 1.
    #[expect(
        clippy::panic,
        reason = "a counter goes up by one per counted row, so it cannot reach 2^63"
    )]
    pub fn count(n: u64) -> Cell {
        if n > Self::MAX_COUNT {
            panic!("count {n} does not fit a cell");
        }
        Cell(Self::COUNT_TAG | n)
    }

    /// The value this cell holds.
    #[inline]
    pub const fn value(self) -> CellValue {
        if self.0 & Self::COUNT_TAG != 0 {
            CellValue::Count(self.0 & Self::MAX_COUNT)
        } else if self.0 == Self::UNBOUND.0 {
            CellValue::Unbound
        } else {
            CellValue::Term(TermId(self.0 as u32))
        }
    }
}

impl std::fmt::Debug for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.value().fmt(f)
    }
}

/// Rows of one width in one flat block of cells: row `r` is the `width`
/// cells from `r * width`. The row count is kept apart from the cells,
/// so a zero-width answer — a query without variables, answered by
/// whether its patterns hold — still says how many solutions it has.
#[derive(Clone, PartialEq, Eq)]
pub struct Rows {
    cells: Vec<Cell>,
    width: usize,
    len: usize,
}

impl Rows {
    /// No rows, `width` cells a row. With [`push`](Self::push), this is
    /// how an answer no execution gives is built, e.g. to test a
    /// conformance check.
    pub fn new(width: usize) -> Self {
        Rows { cells: Vec::new(), width, len: 0 }
    }

    /// No rows yet, room for `rows` of them.
    pub(crate) fn with_capacity(width: usize, rows: usize) -> Self {
        Rows { cells: Vec::with_capacity(width * rows), width, len: 0 }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one row.
    ///
    /// # Panics
    /// If `row` is not as wide as the rows already here.
    pub fn push<C: Borrow<Cell>>(&mut self, row: impl IntoIterator<Item = C>) {
        self.cells.extend(row.into_iter().map(|c| *c.borrow()));
        self.len += 1;
        assert_eq!(self.cells.len(), self.len * self.width, "a row not {} cells wide", self.width);
    }

    /// The rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[Cell]> + '_ {
        (0..self.len).map(move |r| &self[r])
    }

    /// The rows `order` names, in that order, in a block of their own.
    pub(crate) fn gather(&self, order: &[u32]) -> Rows {
        let mut out = Rows::with_capacity(self.width, order.len());
        for &r in order {
            out.push(&self[r as usize]);
        }
        out
    }

    /// The first row not under `pred`, where every row under it comes
    /// before every row that is not.
    pub(crate) fn partition_point(&self, mut pred: impl FnMut(&[Cell]) -> bool) -> usize {
        let (mut lo, mut hi) = (0, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(&self[mid]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Keeps the rows from `offset`, at most `limit` of them, in a
    /// block exactly their size: an answer is cached as it leaves here,
    /// and a `LIMIT 10` over a long scan must not keep the scan's
    /// allocation.
    fn window(&mut self, offset: usize, limit: Option<usize>) {
        let from = offset.min(self.len);
        let len = limit.map_or(self.len - from, |l| l.min(self.len - from));
        if len < self.len {
            self.cells = self.cells[from * self.width..][..len * self.width].to_vec();
        } else {
            self.cells.shrink_to_fit();
        }
        self.len = len;
    }

    /// Bytes of the block's cells, spare capacity included.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.cells.capacity() * std::mem::size_of::<Cell>()
    }
}

impl std::ops::Index<usize> for Rows {
    type Output = [Cell];

    fn index(&self, r: usize) -> &[Cell] {
        assert!(r < self.len, "row {r} of {}", self.len);
        &self.cells[r * self.width..][..self.width]
    }
}

impl std::fmt::Debug for Rows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The materialized result of executing a plan: column names plus rows
/// of [`Cell`]s, already deduplicated/aggregated/ordered/sliced per the
/// plan's modifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutput {
    /// Output column names, in projection order (no `?` prefix).
    pub cols: Vec<String>,
    /// Result rows, one cell a column.
    pub rows: Rows,
}

impl QueryOutput {
    /// Renders one row as `?col=value` pairs joined by two spaces.
    pub fn render_row<K: KbRead + ?Sized>(&self, row: &[Cell], kb: &K) -> String {
        let mut out = String::new();
        self.render_row_into(row, kb, &mut out);
        out
    }

    /// Appends one rendered row to `out` without intermediate per-cell
    /// allocations.
    fn render_row_into<K: KbRead + ?Sized>(&self, row: &[Cell], kb: &K, out: &mut String) {
        for (i, (c, v)) in self.cols.iter().zip(row).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            out.push('?');
            out.push_str(c);
            out.push('=');
            match v.value() {
                CellValue::Term(id) => out.push_str(kb.resolve(id).unwrap_or("?")),
                CellValue::Count(n) => push_count(out, n),
                CellValue::Unbound => out.push('_'),
            }
        }
    }

    /// Renders the whole result deterministically, one row per line.
    pub fn render<K: KbRead + ?Sized>(&self, kb: &K) -> String {
        let mut out = String::new();
        for row in self.rows.iter() {
            self.render_row_into(row, kb, &mut out);
            out.push('\n');
        }
        out
    }
}

/// Appends `n` in decimal, as `write!(out, "{n}")` would: the digits
/// are written last first into a stack buffer, then copied out.
fn push_count(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20]; // u64::MAX has 20
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Resolves a cell to display text.
pub fn cell_str<'k, K: KbRead + ?Sized>(cell: &Cell, kb: &'k K) -> std::borrow::Cow<'k, str> {
    match cell.value() {
        CellValue::Term(id) => std::borrow::Cow::Borrowed(kb.resolve(id).unwrap_or("?")),
        CellValue::Count(n) => std::borrow::Cow::Owned(n.to_string()),
        CellValue::Unbound => std::borrow::Cow::Borrowed("_"),
    }
}

/// Value comparison used by `FILTER` orderings and `ORDER BY`:
/// temporal if both sides parse as [`TimePoint`]s, then numeric if both
/// parse as integers, then lexicographic.
pub(crate) fn cmp_values(a: &str, b: &str) -> Ordering {
    match (TimePoint::parse(a), TimePoint::parse(b)) {
        (Some(x), Some(y)) => x.cmp(&y),
        _ => match (a.parse::<i64>(), b.parse::<i64>()) {
            (Ok(x), Ok(y)) => x.cmp(&y),
            _ => a.cmp(b),
        },
    }
}

pub(crate) fn cmp_cells<K: KbRead + ?Sized>(a: Cell, b: Cell, kb: &K) -> Ordering {
    match (a.value(), b.value()) {
        (CellValue::Term(x), CellValue::Term(y)) => {
            cmp_values(kb.resolve(x).unwrap_or("?"), kb.resolve(y).unwrap_or("?"))
        }
        (CellValue::Count(x), CellValue::Count(y)) => x.cmp(&y),
        // Heterogeneous cells only happen in hand-crafted plans; order
        // them deterministically: counts < terms < unbound.
        (CellValue::Count(_), CellValue::Term(_)) => Ordering::Less,
        (CellValue::Term(_), CellValue::Count(_)) => Ordering::Greater,
        (CellValue::Unbound, CellValue::Unbound) => Ordering::Equal,
        (CellValue::Unbound, _) => Ordering::Greater,
        (_, CellValue::Unbound) => Ordering::Less,
    }
}

// ---------------------------------------------------------------------
// Columnar binding batches
// ---------------------------------------------------------------------

/// Sentinel marking an unbound variable slot inside a [`Batch`] column.
/// Term ids are dense dictionary indexes, so `u32::MAX` can never name
/// a real term at any scale this store supports.
const UNBOUND: u32 = u32::MAX;

/// A columnar batch of candidate bindings: one `u32` column per
/// variable slot, all columns the same length. The unit of work between
/// batch operators. `len` is tracked explicitly so zero-variable plans
/// (all-constant patterns) still carry a row count.
#[derive(Debug, Clone, Default)]
pub(crate) struct Batch {
    cols: Vec<Vec<u32>>,
    len: usize,
}

impl Batch {
    /// The single all-unbound row every plan starts from.
    fn unit(nvars: usize) -> Self {
        Self { cols: vec![vec![UNBOUND]; nvars], len: 1 }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn clear(&mut self) {
        for c in &mut self.cols {
            c.clear();
        }
        self.len = 0;
    }

    /// Empties the batch and makes it `nvars` columns wide, keeping the
    /// columns' capacity where it already is.
    fn reset(&mut self, nvars: usize) {
        self.clear();
        self.cols.resize_with(nvars, Vec::new);
    }

    /// Makes the batch the one row `row` of `src`.
    fn set_row_from(&mut self, src: &Batch, row: usize) {
        self.reset(src.cols.len());
        self.push_row_from(src, row);
    }

    fn get(&self, row: usize, slot: usize) -> Option<TermId> {
        match self.cols[slot][row] {
            UNBOUND => None,
            v => Some(TermId(v)),
        }
    }

    fn push_row_from(&mut self, src: &Batch, row: usize) {
        for (c, sc) in self.cols.iter_mut().zip(&src.cols) {
            c.push(sc[row]);
        }
        self.len += 1;
    }

    /// Keeps only the rows whose bit is set in `keep`, in place.
    fn compact(&mut self, keep: &[u64]) {
        let n = self.len;
        let kept = (0..n).filter(|r| keep[r / 64] >> (r % 64) & 1 == 1).count();
        for col in &mut self.cols {
            let mut w = 0;
            for r in 0..n {
                if keep[r / 64] >> (r % 64) & 1 == 1 {
                    col[w] = col[r];
                    w += 1;
                }
            }
            col.truncate(w);
        }
        self.len = kept;
    }
}

/// A probe table a scan step built in the course of one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeBuild {
    /// The step's operator slot, an index into [`Plan::describe`]'s
    /// labels.
    pub op: usize,
    /// Rows of the predicate's run scanned into the table.
    pub rows: u64,
    /// Rows the step had answered by index lookup when it built it.
    pub lookups: u64,
}

/// Per-run execution statistics collected by [`execute_traced`]:
/// actual rows out of every operator (aligned index-for-index with
/// [`Plan::est_rows`] and [`Plan::describe`]), total batches flushed through BGP steps, rows
/// reaching the root, the groups they made and the probe tables built
/// on the way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecTrace {
    /// Actual output rows per operator slot, in [`Plan::est_rows`] order.
    pub op_rows: Vec<u64>,
    /// Columnar batches flushed through BGP pipeline steps.
    pub batches: u64,
    /// Rows emitted by the root operator (before DISTINCT/ORDER/LIMIT).
    /// A LIMIT with no aggregate, DISTINCT or ORDER BY stops the plan
    /// once `offset + limit` rows are in, so it counts at most one batch
    /// past them, and so do the operators' `op_rows`.
    pub rows: u64,
    /// Groups those rows aggregated into (before DISTINCT/ORDER/LIMIT);
    /// 0 for a plan that does not aggregate.
    pub groups: u64,
    /// Whether the aggregate built an index of its groups, which it
    /// does at the first key below the group before it; false for keys
    /// that only ascend and for a plan that does not aggregate.
    pub group_index: bool,
    /// The probe tables scan steps built, in the order they did.
    pub probe_tables: Vec<ProbeBuild>,
}

/// What one execution keeps between operator calls: the trace it
/// writes and, per operator slot, what that operator carries from one
/// call to its next.
struct ExecCtx {
    trace: ExecTrace,
    /// One entry an operator slot, laid out as [`ExecTrace::op_rows`]
    /// is (see [`op_slots`]). An operator takes its entry out for the
    /// length of a call and puts it back: the tree has no cycle, so no
    /// slot is entered again while its operator runs.
    ops: Vec<OpState>,
    /// Set by a sink that has every row it will keep: the operators
    /// stop at their next batch or row.
    stop: bool,
}

impl ExecCtx {
    fn new(slots: usize) -> Self {
        ExecCtx {
            trace: ExecTrace { op_rows: vec![0; slots], ..ExecTrace::default() },
            ops: std::iter::repeat_with(OpState::default).take(slots).collect(),
            stop: false,
        }
    }
}

/// The state of one operator slot within one execution.
#[derive(Default)]
struct OpState {
    /// Scratch refilled instead of allocated per call: a BGP step's
    /// output batch, the one-row input a LEFT JOIN or UNION hands its
    /// children.
    batch: Batch,
    /// A scan step's store batch.
    triples: TripleBatch,
    /// A scan step's standing with the probe-table rule.
    probe: Probe,
}

// ---------------------------------------------------------------------
// Shared projection / aggregation / finishing
// ---------------------------------------------------------------------

/// Appends one aggregate output row to `rows`: the plan's
/// [`GroupCol`]s read `key(i)`, the value of the `i`-th GROUP BY
/// variable (`None` if unbound), and `count(i)`, the `i`-th COUNT.
pub(crate) fn push_group(
    plan: &Plan,
    rows: &mut Rows,
    key: impl Fn(usize) -> Option<TermId>,
    count: impl Fn(usize) -> u64,
) {
    rows.push(plan.group_cols.iter().map(|c| match *c {
        GroupCol::Key(i) => key(i).map_or(Cell::UNBOUND, Cell::term),
        GroupCol::Count(i) => Cell::count(count(i)),
    }));
}

/// An empty bucket of [`KeyTable::index`].
const NO_KEY: u32 = u32::MAX;

/// The fewest buckets of a [`KeyTable::index`].
const FIRST_BUCKETS: usize = 64;

/// Distinct fixed-width `u32` keys, numbered in arrival order, in flat
/// vectors: the group keys of the [`Aggregator`] and the key column of
/// a [`ProbeTable`]. No allocation and no `Option` per key.
struct KeyTable {
    /// Components a key.
    width: usize,
    /// Key `k`: `width` raw column values from `k * width`, [`UNBOUND`]
    /// included.
    keys: Vec<u32>,
    /// Open addressing over key numbers: a power of two of buckets, at
    /// most half of them taken, bucket from the high bits of
    /// [`hash_key`], linear probing. Term ids are minted by the store,
    /// so nobody outside picks keys to collide. Empty while the table
    /// has no index: keys are then appended by [`push`](Self::push),
    /// and the first [`find_or_insert`](Self::find_or_insert) files
    /// them all.
    index: Vec<u32>,
    len: usize,
}

/// The multiply-rotate hash of `kb_store::fx` over a key's components.
fn hash_key(key: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    for &v in key {
        h.write_u32(v);
    }
    h.finish()
}

impl KeyTable {
    /// A table with no index yet.
    fn new(width: usize) -> Self {
        KeyTable { width, keys: Vec::new(), index: Vec::new(), len: 0 }
    }

    /// A table that takes `keys` keys before its index first grows.
    fn with_capacity(width: usize, keys: usize) -> Self {
        let buckets = (keys * 2).next_power_of_two().max(FIRST_BUCKETS);
        KeyTable {
            width,
            keys: Vec::with_capacity(keys * width),
            index: vec![NO_KEY; buckets],
            len: 0,
        }
    }

    fn key(&self, k: usize) -> &[u32] {
        &self.keys[k * self.width..][..self.width]
    }

    /// Whether key `k` is `key`. Component by component: keys are a
    /// few words wide, and a slice comparison would be a call to the C
    /// library's `bcmp` for every row the aggregator reads.
    fn key_is(&self, k: usize, key: &[u32]) -> bool {
        self.key(k).iter().zip(key).all(|(a, b)| a == b)
    }

    fn bucket(&self, hash: u64) -> usize {
        (hash >> (u64::BITS - self.index.len().trailing_zeros())) as usize
    }

    /// Whether the table has an index.
    fn indexed(&self) -> bool {
        !self.index.is_empty()
    }

    /// Files every key again, from the flat keys, into twice the
    /// buckets the keys and one more need: doubles a full index, and
    /// builds an absent one sized for the keys it finds.
    fn grow(&mut self) {
        let buckets = ((self.len + 1) * 2).next_power_of_two().max(FIRST_BUCKETS);
        self.index.clear();
        self.index.resize(buckets, NO_KEY);
        for k in 0..self.len {
            let mut at = self.bucket(hash_key(self.key(k)));
            while self.index[at] != NO_KEY {
                at = (at + 1) & (buckets - 1);
            }
            self.index[at] = k as u32;
        }
    }

    /// The bucket holding `key`'s number, or the empty one it would go
    /// into.
    fn bucket_of(&self, key: &[u32]) -> usize {
        let mut at = self.bucket(hash_key(key));
        loop {
            match self.index[at] {
                NO_KEY => return at,
                k if self.key_is(k as usize, key) => return at,
                _ => at = (at + 1) & (self.index.len() - 1),
            }
        }
    }

    /// The number of `key`, if it was ever inserted.
    fn find(&self, key: &[u32]) -> Option<usize> {
        match self.index[self.bucket_of(key)] {
            NO_KEY => None,
            k => Some(k as usize),
        }
    }

    /// The number of `key`: `len` as it was before the call if no such
    /// key had been inserted yet.
    fn find_or_insert(&mut self, key: &[u32]) -> usize {
        if (self.len + 1) * 2 > self.index.len() {
            self.grow();
        }
        let at = self.bucket_of(key);
        if self.index[at] == NO_KEY {
            self.index[at] = self.push(key) as u32;
        }
        self.index[at] as usize
    }

    /// Appends `key` as a new key and returns its number, filing it in
    /// no index: a caller that has an index files the key itself, one
    /// that has none knows `key` is new.
    fn push(&mut self, key: &[u32]) -> usize {
        assert!(self.len < NO_KEY as usize, "more keys than a u32 key number can name");
        self.keys.extend_from_slice(key);
        self.len += 1;
        self.len - 1
    }
}

/// The COUNT…GROUP BY sink. It reads the root's batches column by
/// column and holds every group in flat vectors: no allocation, no
/// `Option` and no indirect call per input row.
///
/// Group ids are handed out in arrival order. A row whose key equals
/// the previous row's takes that row's group without touching the
/// index. While every new key arrives above the last group's, no key
/// can name an older group, so the table has no index and a new key
/// is only appended: an index scan grouped by its leading column files
/// nothing. The first key that falls below the last group's builds the
/// index, once, from the flat keys; from then on every key that is not
/// the previous row's is looked up in it.
struct Aggregator<'p> {
    /// Its `group_by` slots are the key; their number is the key width.
    plan: &'p Plan,
    /// The counted slot of each COUNT column, `None` for `*`.
    count_args: Vec<Option<usize>>,
    /// The groups' keys; a key's number is its group's id.
    keys: KeyTable,
    /// Group `g`'s counters: `count_args.len()` of them from
    /// `g * count_args.len()`.
    counts: Vec<u64>,
    /// The key of the row in hand.
    row_key: Vec<u32>,
    /// The previous row's group.
    last: usize,
    /// Whether every group so far arrived above the one before it in
    /// [`key_order`]: group ids are then already in output order.
    ascending: bool,
}

/// The order groups leave in: component by component, unbound before
/// every term and terms by id (adding one wraps [`UNBOUND`] round to
/// zero) — the order of `Option<TermId>`, `None` first.
fn key_order(a: &[u32], b: &[u32]) -> Ordering {
    a.iter().map(|v| v.wrapping_add(1)).cmp(b.iter().map(|v| v.wrapping_add(1)))
}

impl<'p> Aggregator<'p> {
    fn new(plan: &'p Plan) -> Self {
        let count_args = plan.cols.iter().filter_map(|c| match c {
            Col::Count { arg, .. } => Some(*arg),
            Col::Var(_) => None,
        });
        Aggregator {
            plan,
            count_args: count_args.collect(),
            keys: KeyTable::new(plan.group_by.len()),
            counts: Vec::new(),
            row_key: vec![UNBOUND; plan.group_by.len()],
            last: 0,
            ascending: true,
        }
    }

    /// The group of `row_key`, a new one if no row had that key yet.
    fn group_of_row_key(&mut self) -> usize {
        let groups = self.keys.len;
        if groups > 0 && self.keys.key_is(self.last, &self.row_key) {
            return self.last;
        }
        // Once a new group has fallen, no key is compared again.
        let above = self.ascending
            && (groups == 0
                || key_order(self.keys.key(groups - 1), &self.row_key) == Ordering::Less);
        let group = if above && !self.keys.indexed() {
            self.keys.push(&self.row_key)
        } else {
            self.keys.find_or_insert(&self.row_key)
        };
        if group == groups {
            if !above {
                self.ascending = false;
            }
            self.counts.resize(self.counts.len() + self.count_args.len(), 0);
        }
        group
    }

    fn push_batch(&mut self, b: &Batch) {
        let counters = self.count_args.len();
        for row in 0..b.len() {
            for (k, &slot) in self.row_key.iter_mut().zip(&self.plan.group_by) {
                *k = b.cols[slot][row];
            }
            self.last = self.group_of_row_key();
            let counts = &mut self.counts[self.last * counters..][..counters];
            for (n, arg) in counts.iter_mut().zip(&self.count_args) {
                *n += match *arg {
                    None => 1,
                    Some(slot) => u64::from(b.cols[slot][row] != UNBOUND),
                };
            }
        }
    }

    /// One row a group, in [`key_order`], in a block sized to the
    /// groups. No input row, no group — also without GROUP BY, where
    /// every row has the same, empty key.
    fn into_rows(self) -> Rows {
        let keys = &self.keys;
        let mut order: Vec<usize> = (0..keys.len).collect();
        if !self.ascending {
            order.sort_unstable_by(|&a, &b| key_order(keys.key(a), keys.key(b)));
        }
        let counters = self.count_args.len();
        let term = |v: u32| (v != UNBOUND).then_some(TermId(v));
        let mut rows = Rows::with_capacity(self.plan.cols.len(), keys.len);
        for g in order {
            let (key, counts) = (keys.key(g), &self.counts[g * counters..][..counters]);
            push_group(self.plan, &mut rows, |i| term(key[i]), |i| counts[i]);
        }
        rows
    }
}

/// One non-aggregate output row: each `Var` column read from the
/// solution through `get`, a COUNT column of a plan that does not
/// aggregate unbound.
pub(crate) fn project_row<'p>(
    plan: &'p Plan,
    get: impl Fn(usize) -> Option<TermId> + 'p,
) -> impl Iterator<Item = Cell> + 'p {
    plan.cols.iter().map(move |c| match c {
        Col::Var(slot) => get(*slot).map_or(Cell::UNBOUND, Cell::term),
        Col::Count { .. } => Cell::UNBOUND,
    })
}

/// DISTINCT → ORDER BY → OFFSET → LIMIT. DISTINCT keeps the first of
/// equal rows and ORDER BY sorts stably, both over row numbers; the rows
/// they leave are gathered into a new block once.
fn finish_rows<K: KbRead + ?Sized>(plan: &Plan, mut rows: Rows, kb: &K) -> Rows {
    if !plan.distinct && plan.order_by.is_empty() {
        rows.window(plan.offset, plan.limit);
        return rows;
    }
    assert!(rows.len() <= u32::MAX as usize, "more rows than a u32 row number can name");
    let mut order: Vec<u32> = (0..rows.len() as u32).collect();
    if plan.distinct {
        let mut seen: HashSet<&[Cell], BuildHasherDefault<FxHasher>> =
            HashSet::with_capacity_and_hasher(rows.len(), Default::default());
        order.retain(|&r| seen.insert(&rows[r as usize]));
    }
    if !plan.order_by.is_empty() {
        order.sort_by(|&a, &b| {
            let (a, b) = (&rows[a as usize], &rows[b as usize]);
            for &(idx, desc) in &plan.order_by {
                let ord = cmp_cells(a[idx], b[idx], kb);
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    let from = plan.offset.min(order.len());
    let to = plan.limit.map_or(order.len(), |l| order.len().min(from.saturating_add(l)));
    rows.gather(&order[from..to])
}

// ---------------------------------------------------------------------
// Batch executor (the default path)
// ---------------------------------------------------------------------

/// Executes a compiled plan against a KB view.
pub fn execute<K: KbRead + ?Sized>(plan: &Plan, kb: &K) -> QueryOutput {
    execute_traced(plan, kb).0
}

/// Executes a compiled plan, also returning per-operator actual row
/// counts and batch statistics for `--explain`.
pub fn execute_traced<K: KbRead + ?Sized>(plan: &Plan, kb: &K) -> (QueryOutput, ExecTrace) {
    let cols: Vec<String> = plan.cols.iter().map(|c| c.name(&plan.names).to_string()).collect();
    let mut cx = ExecCtx::new(op_slots(&plan.root));
    let mut input = Batch::unit(plan.names.len());

    let rows = if plan.aggregate {
        let mut groups = Aggregator::new(plan);
        run_batch(&plan.root, 0, kb, &mut input, &mut cx, &mut |cx, b| {
            cx.trace.rows += b.len() as u64;
            groups.push_batch(b);
        });
        cx.trace.groups = groups.keys.len as u64;
        cx.trace.group_index = groups.keys.indexed();
        groups.into_rows()
    } else {
        // Rows leave in executor order, so with no DISTINCT or ORDER BY
        // the answer is the first `offset + limit` of them: stop there.
        let keep = match plan.limit {
            Some(limit) if !plan.distinct && plan.order_by.is_empty() => {
                plan.offset.saturating_add(limit)
            }
            _ => usize::MAX,
        };
        let mut rows = Rows::new(plan.cols.len());
        cx.stop = keep == 0;
        run_batch(&plan.root, 0, kb, &mut input, &mut cx, &mut |cx, b| {
            cx.trace.rows += b.len() as u64;
            rows.cells.reserve(b.len() * rows.width);
            for row in 0..b.len() {
                rows.push(project_row(plan, |s| b.get(row, s)));
            }
            cx.stop = rows.len() >= keep;
        });
        rows
    };
    let rows = finish_rows(plan, rows, kb);
    (QueryOutput { cols, rows }, cx.trace)
}

/// What an operator hands the rest of the plan: a batch of its rows.
type Sink<'a> = &'a mut dyn FnMut(&mut ExecCtx, &mut Batch);

/// Walks an operator batch-at-a-time. `base` is the operator's first
/// slot in the context (layout per [`op_slots`]). The callee may mutate
/// `input` freely — callers rebuild what they still need.
fn run_batch<K: KbRead + ?Sized>(
    op: &PhysOp,
    base: usize,
    kb: &K,
    input: &mut Batch,
    cx: &mut ExecCtx,
    sink: Sink<'_>,
) {
    if input.len() == 0 || cx.stop {
        return;
    }
    match op {
        PhysOp::Steps(steps) => run_steps_batch(steps, 0, base, kb, input, cx, sink),
        PhysOp::Join(l, r) => {
            let rbase = base + op_slots(l);
            run_batch(l, base, kb, input, cx, &mut |cx, lb| {
                run_batch(r, rbase, kb, lb, cx, sink);
            });
        }
        PhysOp::LeftJoin(l, r) => {
            let lbase = base + 1;
            let rbase = lbase + op_slots(l);
            // Row-at-a-time over the left's output: the right matches
            // (or the fallback) of one left row come out before anything
            // of the next — the executor's depth-first emit order.
            run_batch(l, lbase, kb, input, cx, &mut |cx, lb| {
                let mut one = std::mem::take(&mut cx.ops[base].batch);
                for row in 0..lb.len() {
                    if cx.stop {
                        break;
                    }
                    let mut any = false;
                    one.set_row_from(lb, row);
                    run_batch(r, rbase, kb, &mut one, cx, &mut |cx, b| {
                        any = true;
                        cx.trace.op_rows[base] += b.len() as u64;
                        sink(cx, b);
                    });
                    if !any {
                        one.set_row_from(lb, row);
                        cx.trace.op_rows[base] += 1;
                        sink(cx, &mut one);
                    }
                }
                cx.ops[base].batch = one;
            });
        }
        PhysOp::Union(l, r) => {
            let lbase = base + 1;
            let rbase = lbase + op_slots(l);
            let mut count = |cx: &mut ExecCtx, b: &mut Batch| {
                cx.trace.op_rows[base] += b.len() as u64;
                sink(cx, b);
            };
            // Per input row, so both branches of one row come out
            // before anything of the next — the same depth-first order.
            let mut one = std::mem::take(&mut cx.ops[base].batch);
            for row in 0..input.len() {
                if cx.stop {
                    break;
                }
                one.set_row_from(input, row);
                run_batch(l, lbase, kb, &mut one, cx, &mut count);
                one.set_row_from(input, row);
                run_batch(r, rbase, kb, &mut one, cx, &mut count);
            }
            cx.ops[base].batch = one;
        }
        PhysOp::Filter(inner, conds) => {
            run_batch(inner, base + 1, kb, input, cx, &mut |cx, b| {
                let n = b.len();
                let mut keep = vec![0u64; n.div_ceil(64)];
                let mut kept = 0usize;
                for row in 0..n {
                    if conds.iter().all(|c| eval_cond_with(c, &|s| b.get(row, s), kb)) {
                        keep[row / 64] |= 1 << (row % 64);
                        kept += 1;
                    }
                }
                if kept == 0 {
                    return;
                }
                if kept < n {
                    b.compact(&keep);
                }
                cx.trace.op_rows[base] += kept as u64;
                sink(cx, b);
            });
        }
        PhysOp::Empty => {}
    }
}

/// Flushes the accumulated output of step `i` into the rest of the
/// pipeline, recording its trace slot, then clears the batch for reuse.
fn flush_steps<K: KbRead + ?Sized>(
    steps: &[Step],
    i: usize,
    base: usize,
    kb: &K,
    out: &mut Batch,
    cx: &mut ExecCtx,
    sink: Sink<'_>,
) {
    if out.len() == 0 {
        return;
    }
    cx.trace.op_rows[base + i] += out.len() as u64;
    cx.trace.batches += 1;
    run_steps_batch(steps, i + 1, base, kb, out, cx, sink);
    out.clear();
}

fn comp_of(t: Triple, c: u8) -> TermId {
    match c {
        0 => t.s,
        1 => t.p,
        _ => t.o,
    }
}

/// Appends one matching triple to `out`: copies the input row, binds
/// the target slots from the triple, and enforces repeated-variable
/// equality (`dups`).
fn append_triple(
    out: &mut Batch,
    input: &Batch,
    row: usize,
    targets: &[(usize, u8)],
    dups: &[(u8, u8)],
    t: Triple,
) {
    for &(c0, c1) in dups {
        if comp_of(t, c0) != comp_of(t, c1) {
            return;
        }
    }
    for (slot, col) in out.cols.iter_mut().enumerate() {
        let v = match targets.iter().find(|tg| tg.0 == slot) {
            Some(&(_, c)) => comp_of(t, c).0,
            None => input.cols[slot][row],
        };
        col.push(v);
    }
    out.len += 1;
}

/// Appends `n` rows to `out`, columnar: a slot `source` has a column of
/// `n` values for is spliced from it, every other slot repeats the
/// input row's value.
fn append_columns<'a>(
    out: &mut Batch,
    input: &Batch,
    row: usize,
    n: usize,
    source: impl Fn(usize) -> Option<&'a [TermId]>,
) {
    for (slot, col) in out.cols.iter_mut().enumerate() {
        match source(slot) {
            Some(src) => col.extend(src.iter().map(|id| id.0)),
            None => {
                let v = input.cols[slot][row];
                col.resize(col.len() + n, v);
            }
        }
    }
    out.len += n;
}

/// Appends a whole store batch to `out` — columnar when the pattern has
/// no repeated unbound variable: target columns are spliced from the
/// [`TripleBatch`].
fn append_matches(
    out: &mut Batch,
    input: &Batch,
    row: usize,
    targets: &[(usize, u8)],
    dups: &[(u8, u8)],
    tb: &TripleBatch,
) {
    let n = tb.len();
    if n == 0 {
        return;
    }
    if dups.is_empty() {
        append_columns(out, input, row, n, |slot| {
            targets.iter().find(|tg| tg.0 == slot).map(|&(_, c)| match c {
                0 => &tb.s[..],
                1 => &tb.p[..],
                _ => &tb.o[..],
            })
        });
    } else {
        for r in 0..n {
            append_triple(out, input, row, targets, dups, tb.row(r));
        }
    }
}

// ---------------------------------------------------------------------
// Probe tables
// ---------------------------------------------------------------------

/// A scan step builds its probe table once the run of its predicate is
/// at most this many times the rows it has been handed.
///
/// The three costs behind it, measured on the benchmark's 1M-fact KB: a
/// lookup through the index ≈ 250 ns (a cursor opened by two binary
/// searches into a fact table that is mostly out of cache), scanning
/// one row of the run into a table ≈ 22 ns, probing the table ≈ 15 ns.
/// A table of `run` rows costs what `run × 22 / 250 ≈ run / 11` lookups
/// cost. How many rows are still to come the step cannot know, so it
/// rents until the rows it was handed — answered already, or waiting in
/// the batch in hand — would have paid for the table, and then buys
/// (the ski-rental rule; 8, not 11, to err on the side of not
/// building). Whatever comes, the step spends under twice what lookups
/// alone would have cost it, and a step that sees few rows against a
/// long run — a point query, the last arm of a star — never builds.
const RUN_ROWS_PER_ROW_SEEN: usize = 8;

/// Where a scan step stands with the rule of [`RUN_ROWS_PER_ROW_SEEN`],
/// within one execution.
#[derive(Default)]
struct Probe {
    /// Input rows the step has been handed, the batch in hand included.
    seen: usize,
    /// Those of them it answered by index lookup though a table would
    /// have served.
    lookups: u64,
    /// The run length of the step's predicate — an upper bound on a
    /// view with deltas — read when the first such row arrives.
    run: Option<usize>,
    table: Option<ProbeTable>,
}

/// One predicate's run, keyed by subject or by object: what a lookup
/// with that end bound yields, for every key at once.
struct ProbeTable {
    /// The triple component rows are looked up by — 0 the subject, 2
    /// the object; the values are the other one.
    key: u8,
    /// The distinct keys of the run.
    keys: KeyTable,
    /// Key number `k`'s values are `vals[starts[k]..starts[k + 1]]`, in
    /// the order the scan yielded them.
    starts: Vec<u32>,
    vals: Vec<TermId>,
}

impl ProbeTable {
    /// Scans the run of `p`, of at most `run` rows, into a table keyed
    /// by component `key`.
    ///
    /// The values of a key keep the scan's order, which is the order a
    /// lookup yields them in: the run streams by (object, subject), so
    /// a subject's objects ascend as in the SPO range of `(s, p)`, and
    /// an object's subjects ascend as in the POS range of `(p, o)` — on
    /// any view, whose merged scans have already settled newest-wins
    /// and tombstones.
    fn build<K: KbRead + ?Sized>(
        kb: &K,
        p: TermId,
        key: u8,
        run: usize,
        tb: &mut TripleBatch,
    ) -> Self {
        let mut scan = kb.matching_batches(&TriplePattern::with_p(p));
        let mut keys = KeyTable::with_capacity(1, run);
        // Per scanned row: its key's number and its value.
        let mut rows: Vec<(u32, TermId)> = Vec::with_capacity(run);
        let mut last = (NO_KEY, 0);
        while scan.next_batch(tb) {
            let (ks, vs) = if key == 0 { (&tb.s, &tb.o) } else { (&tb.o, &tb.s) };
            for (k, &v) in ks.iter().zip(vs) {
                if k.0 != last.0 {
                    last = (k.0, keys.find_or_insert(&[k.0]) as u32);
                }
                rows.push((last.1, v));
            }
        }
        assert!(rows.len() < u32::MAX as usize, "a run longer than a u32 offset can name");
        // A stable counting sort by key number.
        let mut starts = vec![0u32; keys.len + 1];
        for &(k, _) in &rows {
            starts[k as usize + 1] += 1;
        }
        for k in 0..keys.len {
            starts[k + 1] += starts[k];
        }
        let mut next = starts.clone();
        let mut vals = vec![TermId(0); rows.len()];
        for &(k, v) in &rows {
            vals[next[k as usize] as usize] = v;
            next[k as usize] += 1;
        }
        ProbeTable { key, keys, starts, vals }
    }

    fn get(&self, key: TermId) -> &[TermId] {
        match self.keys.find(&[key.0]) {
            Some(k) => &self.vals[self.starts[k] as usize..self.starts[k + 1] as usize],
            None => &[],
        }
    }
}

impl Probe {
    /// What the index lookup `pat` of step `op` would yield — a constant
    /// predicate and exactly one of subject and object, or this returns
    /// `None` — if the step has a table or it is now time to build one;
    /// `None` sends the row through the index, and counts it.
    fn values<K: KbRead + ?Sized>(
        &mut self,
        kb: &K,
        pat: &[Option<TermId>; 3],
        op: usize,
        tb: &mut TripleBatch,
        trace: &mut ExecTrace,
    ) -> Option<&[TermId]> {
        let (p, by, key) = match *pat {
            [Some(s), Some(p), None] => (p, 0, s),
            [None, Some(p), Some(o)] => (p, 2, o),
            _ => return None,
        };
        if self.table.is_none() {
            let run = *self.run.get_or_insert_with(|| {
                let scan = kb.matching_batches(&TriplePattern::with_p(p));
                scan.size_hint().1.unwrap_or(usize::MAX)
            });
            if run > RUN_ROWS_PER_ROW_SEEN * self.seen {
                self.lookups += 1;
                return None;
            }
            let table = ProbeTable::build(kb, p, by, run, tb);
            let (rows, lookups) = (table.vals.len() as u64, self.lookups);
            trace.probe_tables.push(ProbeBuild { op, rows, lookups });
            self.table = Some(table);
        }
        // A row bound at the other end than the table's key (a UNION
        // can feed both kinds) keeps to the index.
        self.table.as_ref().filter(|t| t.key == by).map(|t| t.get(key))
    }
}

fn run_steps_batch<K: KbRead + ?Sized>(
    steps: &[Step],
    i: usize,
    base: usize,
    kb: &K,
    input: &mut Batch,
    cx: &mut ExecCtx,
    sink: Sink<'_>,
) {
    let Some(step) = steps.get(i) else {
        if input.len() > 0 {
            sink(cx, input);
        }
        return;
    };
    let mut state = std::mem::take(&mut cx.ops[base + i]);
    let OpState { batch: out, triples: tb, probe } = &mut state;
    out.reset(input.cols.len());
    let Step { s, p, o, at } = *step;
    // The shape a probe table can answer: a constant predicate, no
    // `@point`, two different variables — of which a row must bind
    // exactly one.
    let probed =
        matches!((s, p, o, at), (Slot::Var(sv), Slot::Const(_), Slot::Var(ov), None) if sv != ov);
    if probed {
        probe.seen += input.len();
    }
    let mut targets: Vec<(usize, u8)> = Vec::new();
    let mut dups: Vec<(u8, u8)> = Vec::new();
    for row in 0..input.len() {
        if cx.stop {
            break;
        }
        let pat = lookup(step, input, row, &mut targets, &mut dups);
        let values =
            if probed { probe.values(kb, &pat, base + i, tb, &mut cx.trace) } else { None };
        if let Some(values) = values {
            // In the lookup's own batches, so that the pipeline sees the
            // same flushes either way.
            let target = targets[0].0;
            for chunk in values.chunks(BATCH_ROWS) {
                append_columns(out, input, row, chunk.len(), |slot| {
                    (slot == target).then_some(chunk)
                });
                if out.len() >= BATCH_ROWS {
                    flush_steps(steps, i, base, kb, out, cx, sink);
                    if cx.stop {
                        break;
                    }
                }
            }
            continue;
        }
        let pattern = TriplePattern { s: pat[0], p: pat[1], o: pat[2] };
        match at {
            Some(point) => {
                for f in kb.matching_at_iter(&pattern, &point) {
                    append_triple(out, input, row, &targets, &dups, f.triple);
                    if out.len() >= BATCH_ROWS {
                        flush_steps(steps, i, base, kb, out, cx, sink);
                        if cx.stop {
                            break;
                        }
                    }
                }
            }
            None => {
                let mut mb = kb.matching_batches(&pattern);
                while mb.next_batch(tb) {
                    append_matches(out, input, row, &targets, &dups, tb);
                    if out.len() >= BATCH_ROWS {
                        flush_steps(steps, i, base, kb, out, cx, sink);
                        if cx.stop {
                            break;
                        }
                    }
                }
            }
        }
    }
    flush_steps(steps, i, base, kb, out, cx, sink);
    cx.ops[base + i] = state;
}

/// The index lookup `step` makes for row `row` of `input`: the
/// components a constant or the row fixes. Into `targets` go the slots
/// a match binds, each with the component it takes, and into `dups` the
/// pairs of components an unbound variable repeated in the pattern
/// makes equal.
fn lookup(
    step: &Step,
    input: &Batch,
    row: usize,
    targets: &mut Vec<(usize, u8)>,
    dups: &mut Vec<(u8, u8)>,
) -> [Option<TermId>; 3] {
    targets.clear();
    dups.clear();
    let mut pat = [None; 3];
    for (c, slot) in [step.s, step.p, step.o].into_iter().enumerate() {
        match slot {
            Slot::Const(id) => pat[c] = Some(id),
            Slot::Var(v) => match input.get(row, v) {
                Some(id) => pat[c] = Some(id),
                None => match targets.iter().find(|tg| tg.0 == v) {
                    Some(&(_, c0)) => dups.push((c0, c as u8)),
                    None => targets.push((v, c as u8)),
                },
            },
        }
    }
    pat
}

/// One position of a standing view's delta join. Each of `facts` that
/// matches step `i` of the view's pipeline — its constants and its
/// repeated variables — binds that step's variables in one seed row;
/// the steps after `i` join the seed rows over `old`, the view the
/// delta was frozen against, then the steps before `i` over `new`, the
/// view with the delta stacked. `sink` sees every joined row through a
/// slot lookup. Which facts hold at the step's `@point` is the caller's
/// to decide: a delta fact carries its span, the seed row does not.
pub(crate) fn delta_join<K, F>(
    steps: &[Step],
    i: usize,
    nvars: usize,
    facts: impl IntoIterator<Item = Triple>,
    old: &K,
    new: &K,
    mut sink: F,
) where
    K: KbRead + ?Sized,
    F: FnMut(&dyn Fn(usize) -> Option<TermId>),
{
    let unit = Batch::unit(nvars);
    let (mut targets, mut dups) = (Vec::new(), Vec::new());
    let fixed = lookup(&steps[i], &unit, 0, &mut targets, &mut dups);
    let mut seed = Batch::default();
    seed.reset(nvars);
    for t in facts {
        if fixed.iter().zip([t.s, t.p, t.o]).all(|(want, got)| want.is_none_or(|w| w == got)) {
            append_triple(&mut seed, &unit, 0, &targets, &dups, t);
        }
    }
    if seed.len() == 0 {
        return;
    }
    let mut cx = ExecCtx::new(steps.len());
    run_steps_batch(steps, i + 1, 0, old, &mut seed, &mut cx, &mut |cx, b| {
        run_steps_batch(&steps[..i], 0, 0, new, b, cx, &mut |_, b| {
            for row in 0..b.len() {
                sink(&|slot| b.get(row, slot));
            }
        });
    });
}

/// Evaluates one compiled `FILTER` condition. The binding lookup is a
/// closure so the executor and the view maintainer, which filters the
/// rows of [`delta_join`], evaluate straight out of a columnar batch
/// row.
pub(crate) fn eval_cond_with<K: KbRead + ?Sized>(
    c: &CondC,
    get: &dyn Fn(usize) -> Option<TermId>,
    kb: &K,
) -> bool {
    // Identity comparisons work on term ids; ordered comparisons
    // resolve to strings (constants keep their raw text so literals the
    // dictionary never interned still compare).
    match c.op {
        CmpOp::Eq | CmpOp::Ne => {
            // `None`: an unbound variable, which satisfies no filter
            // (SPARQL error → row dropped). `Some(None)`: a constant the
            // dictionary never interned, which equals no bound term.
            let id_of = |op: &CondOperand| match op {
                CondOperand::Slot(s) => get(*s).map(Some),
                CondOperand::Const { id, .. } => Some(*id),
            };
            let (Some(l), Some(r)) = (id_of(&c.lhs), id_of(&c.rhs)) else { return false };
            let eq = match (&c.lhs, &c.rhs) {
                // Two constants name the same term exactly when their
                // texts are equal, interned or not.
                (CondOperand::Const { text: a, .. }, CondOperand::Const { text: b, .. }) => a == b,
                _ => l.is_some() && l == r,
            };
            (c.op == CmpOp::Eq) == eq
        }
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
            fn text<'a, K: KbRead + ?Sized>(
                op: &'a CondOperand,
                get: &dyn Fn(usize) -> Option<TermId>,
                kb: &'a K,
            ) -> Option<&'a str> {
                match op {
                    CondOperand::Slot(s) => get(*s).and_then(|id| kb.resolve(id)),
                    CondOperand::Const { text, .. } => Some(text),
                }
            }
            let (Some(l), Some(r)) = (text(&c.lhs, get, kb), text(&c.rhs, get, kb)) else {
                return false;
            };
            let ord = cmp_values(l, r);
            match c.op {
                CmpOp::Lt => ord == Ordering::Less,
                CmpOp::Le => ord != Ordering::Greater,
                CmpOp::Gt => ord == Ordering::Greater,
                CmpOp::Ge => ord != Ordering::Less,
                CmpOp::Eq | CmpOp::Ne => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse;
    use crate::plan::plan;
    use crate::stats::StatsCatalog;
    use kb_store::{Fact, KbBuilder, KbSnapshot, TimeSpan};
    use std::collections::BTreeMap;

    fn city_snap() -> KbSnapshot {
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
        b.assert_str("Steve_Wozniak", "bornIn", "San_Jose");
        b.assert_str("San_Francisco", "locatedIn", "California");
        b.assert_str("San_Jose", "locatedIn", "California");
        b.assert_str("Steve_Jobs", "founded", "Apple_Inc");
        let t = Triple::new(b.intern("Steve_Jobs"), b.intern("worksAt"), b.intern("Apple_Inc"));
        let span = TimeSpan { begin: TimePoint::parse("1976"), end: TimePoint::parse("1985") };
        b.add_fact(Fact { span: Some(span), ..Fact::asserted(t) });
        b.freeze()
    }

    fn solve(snap: &KbSnapshot, text: &str) -> QueryOutput {
        solve_traced(snap, text).0
    }

    fn solve_traced(snap: &KbSnapshot, text: &str) -> (QueryOutput, ExecTrace) {
        let q = parse(text).unwrap();
        let stats = StatsCatalog::build(snap);
        let p = plan(&q, snap, &stats).unwrap();
        execute_traced(&p, snap)
    }

    #[test]
    fn conjunctive_join_binds_all_vars() {
        let s = city_snap();
        let out = solve(&s, "?p bornIn ?c . ?c locatedIn California");
        assert_eq!(out.cols, vec!["c", "p"]);
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn optional_keeps_unmatched_rows() {
        let s = city_snap();
        let out = solve(&s, "SELECT ?p ?co WHERE { ?p bornIn ?c OPTIONAL { ?p founded ?co } }");
        assert_eq!(out.rows.len(), 2);
        let unbound = out.rows.iter().filter(|r| r[1] == Cell::UNBOUND).count();
        assert_eq!(unbound, 1, "Wozniak founded nothing here: {:?}", out.rows);
    }

    #[test]
    fn union_merges_branches() {
        let s = city_snap();
        let out = solve(
            &s,
            "SELECT ?x WHERE { { ?x bornIn San_Francisco } UNION { ?x bornIn San_Jose } }",
        );
        assert_eq!(out.rows.len(), 2);
    }

    #[test]
    fn filter_ne_and_temporal_restriction() {
        let s = city_snap();
        let out = solve(&s, "?a bornIn ?c . ?b bornIn ?c . FILTER(?a != ?b)");
        assert_eq!(out.rows.len(), 0, "different people, different cities here");
        let during = solve(&s, "?p worksAt ?e @1980");
        assert_eq!(during.rows.len(), 1);
        let after = solve(&s, "?p worksAt ?e @1999");
        assert_eq!(after.rows.len(), 0);
    }

    #[test]
    fn count_group_by_orders_deterministically() {
        let s = city_snap();
        let out = solve(
            &s,
            "SELECT ?c COUNT(?p) AS ?n WHERE { ?p bornIn ?c } GROUP BY ?c ORDER BY DESC(?n) ?c",
        );
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.rows[0][1], Cell::count(1));
    }

    #[test]
    fn a_cell_round_trips_its_value_at_the_edges() {
        for id in [TermId(0), TermId(1), TermId(u32::MAX)] {
            assert_eq!(Cell::term(id).value(), CellValue::Term(id));
        }
        assert_eq!(Cell::MAX_COUNT, (1 << 63) - 1);
        for n in [0, 1, u64::from(u32::MAX) + 1, Cell::MAX_COUNT] {
            assert_eq!(Cell::count(n).value(), CellValue::Count(n));
        }
        assert_eq!(Cell::UNBOUND.value(), CellValue::Unbound);
    }

    #[test]
    #[should_panic(expected = "does not fit a cell")]
    fn a_count_past_the_largest_does_not_fit_a_cell() {
        Cell::count(Cell::MAX_COUNT + 1);
    }

    /// The three kinds at their zero are three different cells: unequal,
    /// and kept apart by DISTINCT, which hashes them.
    #[test]
    fn term_zero_count_zero_and_unbound_stay_apart() {
        let kinds = [Cell::term(TermId(0)), Cell::count(0), Cell::UNBOUND];
        for (i, a) in kinds.iter().enumerate() {
            for b in &kinds[i + 1..] {
                assert_ne!(a, b);
            }
        }
        let s = city_snap();
        let distinct = parse("SELECT DISTINCT ?p WHERE { ?p bornIn ?c }").unwrap();
        let p = plan(&distinct, &s, &StatsCatalog::build(&s)).unwrap();
        let mut rows = Rows::new(1);
        for cell in kinds.iter().chain(&kinds).chain(&kinds) {
            rows.push([cell]);
        }
        let kept = finish_rows(&p, rows, &s);
        assert_eq!(kept.iter().map(|r| r[0]).collect::<Vec<_>>(), kinds);
    }

    /// Across kinds the order is counts < terms < unbound, whatever the
    /// values: the largest count still sorts before term 0.
    #[test]
    fn mixed_kinds_order_counts_then_terms_then_unbound() {
        let s = city_snap();
        let (count, term) = (Cell::count(Cell::MAX_COUNT), Cell::term(TermId(0)));
        let ordered = [count, term, Cell::UNBOUND];
        for (i, &a) in ordered.iter().enumerate() {
            for (j, &b) in ordered.iter().enumerate() {
                assert_eq!(cmp_cells(a, b, &s), i.cmp(&j), "{a:?} against {b:?}");
            }
        }
    }

    /// The block an answer leaves `finish_rows` in holds no spare cells:
    /// a LIMIT over a long scan keeps its window, not the scan.
    #[test]
    fn a_windowed_answer_holds_no_spare_capacity() {
        let mut b = KbBuilder::new();
        for i in 0..5_000 {
            b.assert_str(&format!("e{i}"), "p", &format!("o{i}"));
        }
        let s = b.freeze();
        let all = solve(&s, "SELECT ?s ?o WHERE { ?s p ?o }");
        assert_eq!(all.rows.len(), 5_000);
        assert_eq!(all.rows.cells.capacity(), 2 * 5_000);
        let window = solve(&s, "SELECT ?s ?o WHERE { ?s p ?o } LIMIT 10 OFFSET 5");
        assert_eq!(
            window.rows.iter().collect::<Vec<_>>(),
            all.rows.iter().skip(5).take(10).collect::<Vec<_>>()
        );
        assert_eq!(window.rows.cells.capacity(), 2 * 10);
        assert_eq!(window.rows.heap_bytes(), 2 * 10 * 8);
    }

    /// A LIMIT with no DISTINCT or ORDER BY stops the scan once its
    /// window is in: the root sees at most one batch past `offset +
    /// limit` rows, and the answer is the window of the full answer.
    #[test]
    fn a_limit_stops_the_scan_at_its_window() {
        let mut b = KbBuilder::new();
        for i in 0..5_000 {
            b.assert_str(&format!("e{i}"), "p", &format!("o{i}"));
        }
        let s = b.freeze();
        let (window, trace) = solve_traced(&s, "SELECT ?s ?o WHERE { ?s p ?o } LIMIT 10 OFFSET 5");
        assert_eq!(window.rows.len(), 10);
        assert!(trace.rows <= (5 + 10 + BATCH_ROWS) as u64, "{} rows reached the root", trace.rows);
        let (none, trace) = solve_traced(&s, "SELECT ?s WHERE { ?s p ?o } LIMIT 0");
        assert_eq!((none.rows.len(), trace.rows), (0, 0));
        // DISTINCT and ORDER BY need every row.
        let (_, trace) = solve_traced(&s, "SELECT ?s WHERE { ?s p ?o } ORDER BY ?s LIMIT 3");
        assert_eq!(trace.rows, 5_000);
    }

    /// Stopping keeps the answer a prefix through every operator that
    /// loops — a join, a LEFT JOIN's rows, a UNION's rows, a FILTER —
    /// whether the window ends inside a batch, on its edge or past the
    /// last row. A step flushes its batch once it holds `BATCH_ROWS`
    /// rows, after a store batch of up to as many, so the root sees
    /// under two batches' rows past the window.
    #[test]
    fn a_stopped_plan_answers_the_window_of_the_full_answer() {
        let mut b = KbBuilder::new();
        for i in 0..3_000 {
            b.assert_str(&format!("e{i}"), "p", &format!("o{}", i % 7));
            if i % 3 == 0 {
                b.assert_str(&format!("e{i}"), "q", &format!("x{i}"));
            }
        }
        for k in 0..7 {
            b.assert_str(&format!("o{k}"), "r", &format!("c{}", k % 2));
        }
        let s = b.freeze();
        let bodies = [
            "{ ?s p ?o . ?o r ?c }",
            "{ ?s p ?o OPTIONAL { ?s q ?x } }",
            "{ { ?s p o3 } UNION { ?s q ?x } }",
            "{ ?s p ?o . FILTER(?o != o2) }",
        ];
        for body in bodies {
            let all = solve(&s, &format!("SELECT * WHERE {body}"));
            assert!(all.rows.len() > 1_000, "{body}");
            for (offset, limit) in [(0, 1), (5, 10), (1_000, 24), (0, BATCH_ROWS), (0, 4_000)] {
                let text = format!("SELECT * WHERE {body} LIMIT {limit} OFFSET {offset}");
                let (window, trace) = solve_traced(&s, &text);
                let want: Vec<_> = all.rows.iter().skip(offset).take(limit).collect();
                assert_eq!(window.rows.iter().collect::<Vec<_>>(), want, "{text}");
                let keep = (offset + limit + 2 * BATCH_ROWS).min(all.rows.len());
                assert!(trace.rows <= keep as u64, "{text}: {} rows", trace.rows);
            }
        }
    }

    /// Rows of `out` as display text, cell by cell.
    fn text_rows(out: &QueryOutput, s: &KbSnapshot) -> Vec<Vec<String>> {
        out.rows.iter().map(|r| r.iter().map(|c| cell_str(c, s).into_owned()).collect()).collect()
    }

    /// The group keys of `out` (its first `width` columns) as raw ids,
    /// unbound as `None` — which `Option`'s order puts first.
    fn key_ids(out: &QueryOutput, width: usize) -> Vec<Vec<Option<TermId>>> {
        let id = |c: &Cell| match c.value() {
            CellValue::Term(id) => Some(id),
            CellValue::Unbound => None,
            CellValue::Count(_) => panic!("a count in a key column"),
        };
        out.rows.iter().map(|r| r[..width].iter().map(id).collect()).collect()
    }

    fn assert_strictly_ascending(keys: &[Vec<Option<TermId>>]) {
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "groups out of key order: {keys:?}");
    }

    #[test]
    fn groups_leave_in_key_order_when_rows_arrive_unsorted() {
        // Ids follow first appearance: s2 < s0 < s1. The scan streams
        // the POS bucket, by (object, subject): s2, s1, then s0.
        let mut b = KbBuilder::new();
        b.assert_str("s2", "rel", "o0");
        b.assert_str("s0", "rel", "o1");
        b.assert_str("s1", "rel", "o0");
        b.assert_str("s1", "rel", "o1");
        let s = b.freeze();
        let unordered = solve(&s, "SELECT ?y ?x WHERE { ?x rel ?y }");
        let arrival: Vec<String> =
            text_rows(&unordered, &s).into_iter().map(|r| r[1].clone()).collect();
        assert_eq!(arrival, ["s2", "s1", "s0", "s1"], "the premise: subjects arrive unsorted");

        let out = solve(&s, "SELECT ?x COUNT(?y) AS ?n WHERE { ?x rel ?y } GROUP BY ?x");
        assert_eq!(text_rows(&out, &s), [["s2", "1"], ["s0", "1"], ["s1", "2"]]);
        assert_strictly_ascending(&key_ids(&out, 1));
        // LIMIT/OFFSET without ORDER BY slice that order.
        let window =
            solve(&s, "SELECT ?x COUNT(?y) AS ?n WHERE { ?x rel ?y } GROUP BY ?x LIMIT 1 OFFSET 1");
        assert_eq!(text_rows(&window, &s), [["s0", "1"]]);
    }

    #[test]
    fn union_fed_groups_put_the_unbound_group_first() {
        let s = city_snap();
        // The right branch never binds ?c, and its row arrives last.
        let out = solve(
            &s,
            "SELECT ?c COUNT(*) AS ?n COUNT(?c) AS ?bound \
             WHERE { { ?p bornIn ?c } UNION { ?p founded ?x } } GROUP BY ?c",
        );
        assert_eq!(
            text_rows(&out, &s),
            [["_", "1", "0"], ["San_Francisco", "1", "1"], ["San_Jose", "1", "1"]]
        );
        assert_strictly_ascending(&key_ids(&out, 1));
        // Arriving first, between and after bound keys it stays first.
        let out = solve(
            &s,
            "SELECT ?c COUNT(*) AS ?n WHERE { { ?p founded ?x } UNION \
             { { ?p bornIn ?c } UNION { ?p worksAt ?x } } } GROUP BY ?c",
        );
        assert_eq!(text_rows(&out, &s), [["_", "2"], ["San_Francisco", "1"], ["San_Jose", "1"]]);
    }

    #[test]
    fn more_groups_than_a_batch_holds_in_either_arrival_order() {
        // Subject i points at object i % 7 and, every third subject, at
        // a second one: 3 batches and a bit of subjects, 7 objects.
        let n = BATCH_ROWS * 3 + 17;
        let mut b = KbBuilder::new();
        for i in (0..n).rev() {
            b.assert_str(&format!("s{i}"), "rel", &format!("o{}", i % 7));
            if i.is_multiple_of(3) {
                b.assert_str(&format!("s{i}"), "rel", &format!("o{}", (i + 1) % 7));
            }
        }
        let s = b.freeze();
        // Unsorted arrival (subjects of a POS scan), one group a subject.
        let by_subject = solve(&s, "SELECT ?x COUNT(*) AS ?n WHERE { ?x rel ?y } GROUP BY ?x");
        assert_eq!(by_subject.rows.len(), n);
        assert_strictly_ascending(&key_ids(&by_subject, 1));
        for row in text_rows(&by_subject, &s) {
            let i: usize = row[0][1..].parse().unwrap();
            assert_eq!(row[1], if i.is_multiple_of(3) { "2" } else { "1" }, "{row:?}");
        }
        // Sorted arrival (objects of the same scan): runs longer than a
        // batch stay one group across the flush.
        let by_object = solve(&s, "SELECT ?y COUNT(?x) AS ?n WHERE { ?x rel ?y } GROUP BY ?y");
        assert_eq!(by_object.rows.len(), 7);
        assert_strictly_ascending(&key_ids(&by_object, 1));
        let mut want = [0usize; 7];
        for i in 0..n {
            want[i % 7] += 1;
            if i.is_multiple_of(3) {
                want[(i + 1) % 7] += 1;
            }
        }
        for row in text_rows(&by_object, &s) {
            let o: usize = row[0][1..].parse().unwrap();
            assert_eq!(row[1], want[o].to_string(), "{row:?}");
        }
        // Both at once: more two-part keys than a batch holds.
        let pairs = solve(&s, "SELECT ?y ?x COUNT(*) AS ?n WHERE { ?x rel ?y } GROUP BY ?y ?x");
        assert_eq!(pairs.rows.len(), n + n.div_ceil(3));
        assert_strictly_ascending(&key_ids(&pairs, 2));
        assert!(pairs.rows.iter().all(|r| r[2] == Cell::count(1)));
    }

    #[test]
    fn two_keys_order_by_the_group_by_list_not_the_projection() {
        let mut b = KbBuilder::new();
        for (x, y) in [("b", "q"), ("a", "q"), ("b", "p"), ("a", "p"), ("b", "q2")] {
            b.assert_str(x, "rel", y);
            b.assert_str(x, "also", y);
        }
        let s = b.freeze();
        // Ids: b < rel < q < also < a < p < q2.
        let body = "{ { ?x rel ?y } UNION { ?x also ?y } }";
        let out = solve(&s, &format!("SELECT ?x ?y COUNT(*) AS ?n WHERE {body} GROUP BY ?x ?y"));
        let want = [["b", "q"], ["b", "p"], ["b", "q2"], ["a", "q"], ["a", "p"]];
        assert_eq!(text_rows(&out, &s), want.map(|[x, y]| [x, y, "2"]));
        assert_strictly_ascending(&key_ids(&out, 2));
        // Projected the other way round, the rows keep the GROUP BY order.
        let swapped =
            solve(&s, &format!("SELECT ?y COUNT(*) AS ?n ?x WHERE {body} GROUP BY ?x ?y"));
        assert_eq!(text_rows(&swapped, &s), want.map(|[x, y]| [y, "2", x]));
        // A key that is not projected still separates and orders groups.
        let hidden = solve(&s, &format!("SELECT ?y COUNT(*) AS ?n WHERE {body} GROUP BY ?x ?y"));
        assert_eq!(text_rows(&hidden, &s), want.map(|[_, y]| [y, "2"]));
        let no_columns = solve(&s, &format!("SELECT COUNT(?x) AS ?n WHERE {body} GROUP BY ?y"));
        assert_eq!(text_rows(&no_columns, &s), [["4"], ["4"], ["2"]]);
    }

    #[test]
    fn count_star_counts_rows_count_var_counts_bound_values() {
        let s = city_snap();
        let out = solve(
            &s,
            "SELECT ?p COUNT(*) AS ?all COUNT(?co) AS ?some \
             WHERE { ?p bornIn ?c OPTIONAL { ?p founded ?co } } GROUP BY ?p",
        );
        assert_eq!(text_rows(&out, &s), [["Steve_Jobs", "1", "1"], ["Steve_Wozniak", "1", "0"]]);
        // A key only the OPTIONAL binds: Wozniak's row is the unbound
        // group, and it comes first.
        let out = solve(
            &s,
            "SELECT ?co COUNT(*) AS ?all COUNT(?co) AS ?some \
             WHERE { ?p bornIn ?c OPTIONAL { ?p founded ?co } } GROUP BY ?co",
        );
        assert_eq!(text_rows(&out, &s), [["_", "1", "0"], ["Apple_Inc", "1", "1"]]);
        // No GROUP BY: one group over every row.
        let out = solve(
            &s,
            "SELECT COUNT(*) AS ?all COUNT(?co) AS ?some \
             WHERE { ?p bornIn ?c OPTIONAL { ?p founded ?co } }",
        );
        assert_eq!(text_rows(&out, &s), [["2", "1"]]);
    }

    #[test]
    fn zero_rows_make_zero_groups_with_and_without_group_by() {
        let s = city_snap();
        let none = "{ ?p bornIn ?c . ?c locatedIn Steve_Jobs }";
        assert_eq!(
            solve(&s, &format!("SELECT ?c COUNT(?p) AS ?n WHERE {none} GROUP BY ?c")).rows.len(),
            0
        );
        assert_eq!(solve(&s, &format!("SELECT COUNT(*) AS ?n WHERE {none}")).rows.len(), 0);
        assert_eq!(solve(&s, &format!("SELECT COUNT(?p) AS ?n WHERE {none}")).rows.len(), 0);
    }

    #[test]
    fn distinct_limit_offset() {
        let s = city_snap();
        let out = solve(&s, "SELECT DISTINCT ?c WHERE { ?p bornIn ?c . ?c locatedIn ?st }");
        assert_eq!(out.rows.len(), 2);
        let out = solve(
            &s,
            "SELECT DISTINCT ?c WHERE { ?p bornIn ?c . ?c locatedIn ?st } ORDER BY ?c LIMIT 1 OFFSET 1",
        );
        assert_eq!(out.rows.len(), 1);
        assert_eq!(cell_str(&out.rows[0][0], &s), "San_Jose");
    }

    #[test]
    fn temporal_filter_compares_years() {
        let mut b = KbBuilder::new();
        b.assert_str("e1", "happenedIn", "1969");
        b.assert_str("e2", "happenedIn", "1991");
        b.assert_str("e3", "happenedIn", "2004");
        let s = b.freeze();
        let out = solve(&s, "SELECT ?e WHERE { ?e happenedIn ?y . FILTER(?y < 2000) } ORDER BY ?e");
        assert_eq!(out.rows.len(), 2);
        // `2000` is not in the dictionary — ordered comparison still
        // works through the raw literal text.
        assert!(s.term("2000").is_none());
    }

    #[test]
    fn repeated_variable_in_pattern_matches_reflexive_triples() {
        let mut b = KbBuilder::new();
        b.assert_str("a", "knows", "a");
        b.assert_str("a", "knows", "b");
        b.assert_str("b", "knows", "b");
        let s = b.freeze();
        let out = solve(&s, "SELECT ?x WHERE { ?x knows ?x } ORDER BY ?x");
        assert_eq!(out.rows.len(), 2);
        assert_eq!(cell_str(&out.rows[0][0], &s), "a");
    }

    #[test]
    fn trace_rows_align_with_plan_ops() {
        let s = city_snap();
        let q = parse("?p bornIn ?c . ?c locatedIn ?st . FILTER(?st = California)").unwrap();
        let stats = StatsCatalog::build(&s);
        let p = plan(&q, &s, &stats).unwrap();
        let (out, trace) = execute_traced(&p, &s);
        let labels = p.describe(&s);
        assert_eq!(labels.len(), trace.op_rows.len());
        assert_eq!(p.est_rows().len(), trace.op_rows.len());
        assert!(trace.batches > 0);
        assert_eq!(trace.rows as usize, out.rows.len());
        // The root FILTER sits at slot 0; its output is the emitted
        // total.
        assert!(labels[0].starts_with("filter"), "{labels:?}");
        assert_eq!(trace.op_rows[0], trace.rows);
    }

    #[test]
    fn batch_flushes_split_large_scans_without_changing_results() {
        let mut b = KbBuilder::new();
        for i in 0..(BATCH_ROWS * 3 + 17) {
            b.assert_str(&format!("s{i}"), "rel", &format!("o{}", i % 50));
        }
        let s = b.freeze();
        let q = parse("?x rel ?y").unwrap();
        let stats = StatsCatalog::build(&s);
        let p = plan(&q, &s, &stats).unwrap();
        let (out, trace) = execute_traced(&p, &s);
        assert_eq!(out.rows.len(), BATCH_ROWS * 3 + 17);
        assert!(trace.batches >= 4, "expected ≥4 flushed batches: {trace:?}");
        // The scan streams the POS bucket, ordered by (object, subject)
        // id; both ids grow with first appearance, so with `i`.
        let n = BATCH_ROWS * 3 + 17;
        let expect: Vec<String> = (0..50)
            .flat_map(|o| (o..n).step_by(50).map(move |i| format!("?x=s{i}  ?y=o{o}")))
            .collect();
        assert_eq!(out.render(&s).lines().collect::<Vec<_>>(), expect);
    }

    /// A step checks its batch against `BATCH_ROWS` after appending a
    /// whole store batch: a row whose matches top up a batch just under
    /// the mark flushes more than `BATCH_ROWS` rows, never `2 ·
    /// BATCH_ROWS` or more.
    #[test]
    fn a_step_flushes_under_two_batches_of_rows() {
        let mut b = KbBuilder::new();
        for i in 0..BATCH_ROWS - 24 {
            b.assert_str("a", "p", &format!("o{i}"));
        }
        for i in 0..3 * BATCH_ROWS {
            b.assert_str("b", "p", &format!("o{i}"));
        }
        let s = b.freeze();
        let id = |term| s.term(term).unwrap();
        let steps = [Step { s: Slot::Var(0), p: Slot::Const(id("p")), o: Slot::Var(1), at: None }];
        let mut input = Batch { cols: vec![vec![id("a").0, id("b").0], vec![UNBOUND; 2]], len: 2 };
        let mut cx = ExecCtx::new(steps.len());
        let mut lens = Vec::new();
        run_steps_batch(&steps, 0, 0, &s, &mut input, &mut cx, &mut |_, b| lens.push(b.len()));
        assert_eq!(lens.iter().sum::<usize>(), 4 * BATCH_ROWS - 24);
        assert!(lens.iter().all(|&n| n < 2 * BATCH_ROWS), "batches of {lens:?}");
        assert!(lens[0] > BATCH_ROWS, "batches of {lens:?}");
    }

    // -- joins against the plain nested loop ----------------------------
    //
    // What a multi-pattern answer must be, row for row and in order, is
    // restated here without the executor: one index lookup
    // (`matching_iter`) per row of the prefix, patterns in the order the
    // planner runs them (the fixtures make the anchor the rarest
    // predicate by far).

    type Binding = BTreeMap<String, TermId>;

    /// `rows` extended by one pattern, one lookup a row, the matches of
    /// a row in the order the lookup yields them. With `optional`, a row
    /// nothing extends stays as it is.
    fn extend(
        kb: &KbSnapshot,
        rows: &[Binding],
        pattern: [&str; 3],
        at: Option<&str>,
        optional: bool,
    ) -> Vec<Binding> {
        let point = at.map(|y| TimePoint::parse(y).unwrap());
        let mut out = Vec::new();
        for row in rows {
            let fixed = |t: &str| match t.strip_prefix('?') {
                Some(var) => row.get(var).copied(),
                None => Some(kb.term(t).unwrap_or_else(|| panic!("{t} is not a term"))),
            };
            let [s, p, o] = pattern.map(fixed);
            let lookup = TriplePattern { s, p, o };
            let found: Vec<Triple> = match &point {
                Some(point) => kb.matching_at_iter(&lookup, point).map(|f| f.triple).collect(),
                None => kb.matching_iter(&lookup).map(|f| f.triple).collect(),
            };
            let before = out.len();
            'triples: for t in found {
                let mut extended = row.clone();
                for (term, id) in pattern.iter().zip([t.s, t.p, t.o]) {
                    if let Some(var) = term.strip_prefix('?') {
                        if *extended.entry(var.to_string()).or_insert(id) != id {
                            continue 'triples;
                        }
                    }
                }
                out.push(extended);
            }
            if optional && out.len() == before {
                out.push(row.clone());
            }
        }
        out
    }

    /// The patterns joined left to right from the one empty row.
    fn nested_loop(kb: &KbSnapshot, patterns: &[[&str; 3]]) -> Vec<Binding> {
        patterns.iter().fold(vec![Binding::new()], |rows, &p| extend(kb, &rows, p, None, false))
    }

    /// The rows of `out` as bindings, unbound cells left out.
    fn bindings(out: &QueryOutput) -> Vec<Binding> {
        let cell = |(col, cell): (&String, &Cell)| match cell.value() {
            CellValue::Term(id) => Some((col.clone(), id)),
            CellValue::Unbound => None,
            CellValue::Count(_) => panic!("a count in a join answer"),
        };
        out.rows.iter().map(|r| out.cols.iter().zip(r).filter_map(cell).collect()).collect()
    }

    /// `anchors` subjects `s{i}`, each once under `anchor`. Under `arm`:
    /// every second of them has one value, every tenth a second one —
    /// asserted first though its id is the higher — every fourth of
    /// those facts holds over [1980, 1985] only, every 500th subject
    /// points at itself, and `filler` subjects the anchor lacks
    /// lengthen the predicate's run.
    fn star_kb(anchors: usize, filler: usize) -> KbSnapshot {
        let mut b = KbBuilder::new();
        for v in 0..8 {
            b.intern(&format!("v{v}"));
        }
        for i in 0..anchors {
            b.assert_str(&format!("s{i}"), "anchor", &format!("a{}", i % 5));
        }
        let span = TimeSpan { begin: TimePoint::parse("1980"), end: TimePoint::parse("1985") };
        for i in (0..anchors).rev() {
            let s = format!("s{i}");
            if i % 10 == 0 {
                b.assert_str(&s, "arm", &format!("v{}", i % 7 + 1));
            }
            if i % 2 == 0 {
                let t =
                    Triple::new(b.intern(&s), b.intern("arm"), b.intern(&format!("v{}", i % 7)));
                let span = (i % 4 == 0).then_some(span);
                b.add_fact(Fact { span, ..Fact::asserted(t) });
            }
            if i % 500 == 0 {
                b.assert_str(&s, "arm", &s);
            }
        }
        for j in 0..filler {
            b.assert_str(&format!("t{j}"), "arm", &format!("v{}", j % 7));
        }
        b.freeze()
    }

    /// More anchor rows than two batches hold, and an `arm` run eight
    /// times the 1 500th of them.
    fn wide_star_kb() -> KbSnapshot {
        let anchors = 2 * BATCH_ROWS + 100;
        let s = star_kb(anchors, 12_000 - (anchors / 2 + anchors / 10 + 5));
        let arm = s.term("arm").unwrap();
        let run = s.count_matching(&TriplePattern::with_p(arm));
        assert!(run > 8 * BATCH_ROWS && run < 8 * 2 * BATCH_ROWS, "arm run of {run}");
        s
    }

    #[test]
    fn subject_star_over_more_than_two_batches_is_the_nested_loop_row_for_row() {
        let s = wide_star_kb();
        let want = nested_loop(&s, &[["?x", "anchor", "?a"], ["?x", "arm", "?b"]]);
        assert!(want.len() > BATCH_ROWS, "{} rows", want.len());
        // A subject's two values come out by ascending id, not as
        // asserted.
        let two = want.iter().position(|r| r["x"] == s.term("s20").unwrap()).unwrap();
        assert_eq!(want[two]["b"], s.term("v6").unwrap());
        assert_eq!(want[two + 1]["b"], s.term("v7").unwrap());
        let got = solve(&s, "?x anchor ?a . ?x arm ?b");
        assert_eq!(bindings(&got), want);
        // A window without ORDER BY slices that order, wherever it sits.
        for (offset, limit) in [(0, 7), (600, 300), (900, 64), (want.len() - 3, 10)] {
            let text = format!(
                "SELECT * WHERE {{ ?x anchor ?a . ?x arm ?b }} LIMIT {limit} OFFSET {offset}"
            );
            let window = &want[offset..(offset + limit).min(want.len())];
            assert_eq!(bindings(&solve(&s, &text)), window, "{text}");
        }
        // The third arm of a star sees the few rows the second kept.
        let want =
            nested_loop(&s, &[["?x", "anchor", "a3"], ["?x", "arm", "?b"], ["?x", "arm", "?c"]]);
        assert_eq!(bindings(&solve(&s, "?x anchor a3 . ?x arm ?b . ?x arm ?c")), want);
    }

    #[test]
    fn object_bound_step_yields_subjects_in_lookup_order() {
        // `u{j} arm s{i}`: three subjects an object, asserted highest
        // first, and a run past eight times the first hundred anchors.
        let mut b = KbBuilder::new();
        for i in 0..400 {
            b.assert_str(&format!("s{i}"), "anchor", &format!("a{}", i % 5));
        }
        for j in (0..1_200).rev() {
            b.assert_str(&format!("u{j}"), "arm", &format!("s{}", j % 300));
        }
        for j in 0..300 {
            b.assert_str(&format!("w{j}"), "arm", &format!("a{}", j % 5));
        }
        let s = b.freeze();
        let want = nested_loop(&s, &[["?x", "anchor", "?a"], ["?y", "arm", "?x"]]);
        assert_eq!(want.len(), 1_200);
        assert!(want[0]["y"] < want[1]["y"] && want[1]["y"] < want[2]["y"]);
        assert_eq!(bindings(&solve(&s, "?x anchor ?a . ?y arm ?x")), want);
        // Both ends bound by the prefix: a lookup per row, whatever came
        // before.
        let want =
            nested_loop(&s, &[["?x", "anchor", "?a"], ["?y", "arm", "?x"], ["?y", "arm", "?x"]]);
        assert_eq!(bindings(&solve(&s, "?x anchor ?a . ?y arm ?x . ?y arm ?x")).len(), want.len());
    }

    /// 1 000 `left` subjects `l{i}`, the first 40 also under `pre` (with
    /// a value `arm` may or may not give them), two `other` subjects,
    /// and an `arm` run of `run` facts: every second `l{i}` has a value,
    /// every fifth another (every tenth so has two), the rest are filler
    /// subjects.
    fn optional_kb(run: usize) -> KbSnapshot {
        let mut b = KbBuilder::new();
        for i in 0..1_000 {
            b.assert_str(&format!("l{i}"), "left", &format!("q{}", i % 3));
        }
        for i in 0..40 {
            b.assert_str(&format!("l{i}"), "pre", &format!("v{}", i % 7));
        }
        for k in 0..2 {
            b.assert_str(&format!("z{k}"), "other", "q0");
        }
        for i in (0..1_000).rev() {
            if i % 5 == 0 {
                b.assert_str(&format!("l{i}"), "arm", &format!("v{}", (i + 3) % 7));
            }
            if i % 2 == 0 {
                b.assert_str(&format!("l{i}"), "arm", &format!("v{}", i % 7));
            }
        }
        for j in 0..run - 700 {
            b.assert_str(&format!("f{j}"), "arm", &format!("v{}", j % 7));
        }
        let s = b.freeze();
        assert_eq!(s.count_matching(&TriplePattern::with_p(s.term("arm").unwrap())), run);
        s
    }

    #[test]
    fn optional_over_a_thousand_left_rows_of_every_boundness_is_the_nested_loop() {
        let s = optional_kb(2_000);
        let unit = [Binding::new()];
        let pre = extend(&s, &unit, ["?x", "pre", "?y"], None, false);
        let left = extend(&s, &unit, ["?x", "left", "?l"], None, false);
        let other = extend(&s, &unit, ["?z", "other", "?l"], None, false);
        // `?y` bound already (a lookup that only checks), then the
        // thousand rows that bind it, the first kind again, and rows
        // without `?x`, each of which the whole run extends.
        let fed = [pre.clone(), left, pre, other].concat();
        let want = extend(&s, &fed, ["?x", "arm", "?y"], None, true);
        assert_eq!(want.len(), 40 + (500 + 200 + 400) + 40 + 2 * 2_000);
        let got = solve(
            &s,
            "SELECT * WHERE { { ?x pre ?y } UNION { { ?x left ?l } UNION \
             { { ?x pre ?y } UNION { ?z other ?l } } } OPTIONAL { ?x arm ?y } }",
        );
        assert_eq!(bindings(&got), want);
    }

    /// A view that counts how often it is asked for its runs: once a
    /// cursor opened, whatever the pattern.
    struct CountingView<'a> {
        inner: &'a KbSnapshot,
        asked: std::cell::Cell<usize>,
    }

    impl KbRead for CountingView<'_> {
        fn groups(&self) -> kb_store::Groups<'_> {
            self.asked.set(self.asked.get() + 1);
            self.inner.groups()
        }
        fn term_count(&self) -> usize {
            self.inner.term_count()
        }
        fn taxonomy(&self) -> &kb_store::Taxonomy {
            self.inner.taxonomy()
        }
        fn sameas(&self) -> &kb_store::SameAsStore {
            self.inner.sameas()
        }
        fn labels(&self) -> &kb_store::LabelStore {
            self.inner.labels()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
    }

    #[test]
    fn an_optional_opens_a_cursor_a_left_row_and_at_most_two_more() {
        for run in [2_000, 9_000] {
            let s = optional_kb(run);
            let q = parse("SELECT * WHERE { ?x left ?l OPTIONAL { ?x arm ?y } }").unwrap();
            let p = plan(&q, &s, &StatsCatalog::build(&s)).unwrap();
            let counting = CountingView { inner: &s, asked: std::cell::Cell::new(0) };
            let out = execute(&p, &counting);
            let left = nested_loop(&s, &[["?x", "left", "?l"]]);
            assert_eq!(bindings(&out), extend(&s, &left, ["?x", "arm", "?y"], None, true));
            // The left scan, a lookup a left row, and whatever the
            // executor spends on sizing the right side up — once, not
            // once a row.
            let asked = counting.asked.get();
            assert!(asked <= 1 + 1_000 + 2, "{asked} cursors for 1 000 left rows, run {run}");
        }
    }

    #[test]
    fn repeated_variable_and_time_travel_steps_are_the_nested_loop() {
        let s = wide_star_kb();
        // `?x arm ?x` under a bound `?x` only checks; under an unbound
        // `?y` it scans the run for reflexive facts, once a row.
        let want = nested_loop(&s, &[["?x", "anchor", "?a"], ["?x", "arm", "?x"]]);
        assert_eq!(want.len(), 5);
        assert_eq!(bindings(&solve(&s, "?x anchor ?a . ?x arm ?x")), want);
        let want = nested_loop(&s, &[["?x", "anchor", "a0"], ["?y", "arm", "?y"]]);
        assert_eq!(want.len(), 430 * 5);
        assert_eq!(bindings(&solve(&s, "?x anchor a0 . ?y arm ?y")), want);
        // `@1990` drops the facts that ended in 1985, `@1982` keeps them.
        let anchored = nested_loop(&s, &[["?x", "anchor", "?a"]]);
        let mut sizes = Vec::new();
        for year in ["1990", "1982"] {
            let want = extend(&s, &anchored, ["?x", "arm", "?b"], Some(year), false);
            sizes.push(want.len());
            let text = format!("?x anchor ?a . ?x arm ?b @{year}");
            assert_eq!(bindings(&solve(&s, &text)), want, "{text}");
        }
        assert!(sizes[0] + 500 < sizes[1], "{sizes:?}");
    }

    #[test]
    fn a_run_past_eight_times_the_prefix_is_the_nested_loop() {
        // A hundred anchors against a run of five thousand.
        let s = star_kb(100, 5_000);
        let want = nested_loop(&s, &[["?x", "anchor", "?a"], ["?x", "arm", "?b"]]);
        assert_eq!(want.len(), 50 + 10 + 1);
        assert_eq!(bindings(&solve(&s, "?x anchor ?a . ?x arm ?b")), want);
    }

    // -- the probe-table rule, read off the trace -----------------------

    /// The tables `text` built over `s`, each with its operator's label.
    fn tables_built(s: &KbSnapshot, text: &str) -> Vec<(String, ProbeBuild)> {
        let p = plan(&parse(text).unwrap(), s, &StatsCatalog::build(s)).unwrap();
        let (_, trace) = execute_traced(&p, s);
        let labels = p.describe(s);
        trace.probe_tables.iter().map(|t| (labels[t.op].clone(), *t)).collect()
    }

    #[test]
    fn a_table_is_built_once_the_run_is_eight_times_the_rows_handed_over() {
        // A run between eight and sixteen batches: the first batch of
        // anchor rows goes through the index, the second builds.
        let s = wide_star_kb();
        let run = s.count_matching(&TriplePattern::with_p(s.term("arm").unwrap())) as u64;
        let built = tables_built(&s, "?x anchor ?a . ?x arm ?b");
        let [(label, table)] = &built[..] else { panic!("{built:?}") };
        assert!(label.contains("arm"), "{label}");
        assert_eq!(*table, ProbeBuild { op: 1, rows: run, lookups: BATCH_ROWS as u64 });
        // Keyed by object, and at the first row when the first batch is
        // already enough.
        let mut b = KbBuilder::new();
        for i in 0..400 {
            b.assert_str(&format!("s{i}"), "anchor", "a");
            b.assert_str(&format!("u{i}"), "arm", &format!("s{}", i % 300));
        }
        let built = tables_built(&b.freeze(), "?x anchor ?a . ?y arm ?x");
        assert_eq!(built.len(), 1, "{built:?}");
        assert_eq!(built[0].1, ProbeBuild { op: 1, rows: 400, lookups: 0 });
        // One row at a time, ineligible rows counted as handed over but
        // not as lookups: the 250th row of 40 + 1 000 + … builds.
        let s = optional_kb(2_000);
        let built = tables_built(
            &s,
            "SELECT * WHERE { { ?x pre ?y } UNION { { ?x left ?l } UNION \
             { { ?x pre ?y } UNION { ?z other ?l } } } OPTIONAL { ?x arm ?y } }",
        );
        let [(label, table)] = &built[..] else { panic!("{built:?}") };
        assert!(label.contains("arm"), "{label}");
        assert_eq!((table.rows, table.lookups), (2_000, 250 - 40 - 1));
    }

    #[test]
    fn no_table_for_few_rows_a_repeated_variable_or_a_time_point() {
        let s = wide_star_kb();
        for text in [
            // 430 rows against a run of 12 000.
            "?x anchor a3 . ?x arm ?c",
            "?x anchor ?a . ?x arm ?x",
            "?x anchor a0 . ?y arm ?y",
            "?x anchor ?a . ?x arm ?b @1990",
            // A constant end is one lookup, however many rows ask.
            "?x anchor ?a . s20 arm ?b",
            "?x arm ?b",
        ] {
            assert_eq!(tables_built(&s, text), [], "{text}");
        }
        assert_eq!(tables_built(&star_kb(100, 5_000), "?x anchor ?a . ?x arm ?b"), []);
    }

    #[test]
    fn the_run_is_sized_once_an_execution() {
        // Cursors: the left scan, a lookup a left row until the table is
        // built, one to size the run, one to scan it.
        for (run, lookups, building) in [(2_000, 249, 1), (9_000, 1_000, 0)] {
            let s = optional_kb(run);
            let q = parse("SELECT * WHERE { ?x left ?l OPTIONAL { ?x arm ?y } }").unwrap();
            let p = plan(&q, &s, &StatsCatalog::build(&s)).unwrap();
            let counting = CountingView { inner: &s, asked: std::cell::Cell::new(0) };
            let (_, trace) = execute_traced(&p, &counting);
            assert_eq!(trace.probe_tables.len(), building);
            assert_eq!(counting.asked.get(), 1 + lookups + 1 + building, "run {run}");
        }
    }

    /// The counts 0, 9, 10, 2^32, every power of ten a cell holds and
    /// one below it, and the largest a cell holds render as `format!`
    /// writes them; the digit loop itself reaches `u64::MAX`.
    #[test]
    fn a_count_renders_as_format_writes_it() {
        let s = city_snap();
        let tens = (1..19).flat_map(|e| [10u64.pow(e) - 1, 10u64.pow(e)]);
        let counts: Vec<u64> =
            [0, 9, 10, 1 << 32, Cell::MAX_COUNT].into_iter().chain(tens).collect();
        let mut rows = Rows::new(2);
        for &n in &counts {
            rows.push([Cell::count(n), Cell::term(TermId(0))]);
        }
        let out = QueryOutput { cols: vec!["n".into(), "t".into()], rows };
        let t = cell_str(&Cell::term(TermId(0)), &s);
        let want: Vec<String> = counts.iter().map(|n| format!("?n={n}  ?t={t}")).collect();
        let rendered: Vec<String> = out.rows.iter().map(|r| out.render_row(r, &s)).collect();
        assert_eq!(rendered, want);
        assert_eq!(out.render(&s), want.iter().map(|l| format!("{l}\n")).collect::<String>());
        let mut max = String::new();
        push_count(&mut max, u64::MAX);
        assert_eq!(max, u64::MAX.to_string());
    }

    // -----------------------------------------------------------------
    // Group keys that ascend, fall below the last group and ascend again
    // -----------------------------------------------------------------

    /// A stream of group keys, one a row: a GROUP BY list's values,
    /// `None` for unbound.
    type KeyStream = Vec<Vec<Option<u32>>>;

    /// Groups as they leave: key and COUNT(*).
    type Groups = Vec<(Vec<Option<TermId>>, u64)>;

    /// What the aggregator makes of `stream` fed in batches of `batch`
    /// rows: whether it built its group index, and its groups.
    fn aggregate(stream: &KeyStream, batch: usize) -> (bool, Groups) {
        let width = stream[0].len();
        let mut b = KbBuilder::new();
        b.assert_str("a", "rel", "b");
        let s = b.freeze();
        let text = match width {
            1 => "SELECT ?x COUNT(*) AS ?n WHERE { ?x rel ?y } GROUP BY ?x",
            _ => "SELECT ?x ?y COUNT(*) AS ?n WHERE { ?x rel ?y } GROUP BY ?x ?y",
        };
        let p = plan(&parse(text).unwrap(), &s, &StatsCatalog::build(&s)).unwrap();
        let mut groups = Aggregator::new(&p);
        for rows in stream.chunks(batch) {
            let mut b =
                Batch { cols: vec![vec![UNBOUND; rows.len()]; p.names.len()], len: rows.len() };
            for (r, key) in rows.iter().enumerate() {
                for (&slot, v) in p.group_by.iter().zip(key) {
                    b.cols[slot][r] = v.unwrap_or(UNBOUND);
                }
            }
            groups.push_batch(&b);
        }
        let indexed = groups.keys.indexed();
        let rows = groups.into_rows();
        let out = QueryOutput { cols: vec![String::new(); width + 1], rows };
        let counts = out.rows.iter().map(|r| match r[width].value() {
            CellValue::Count(n) => n,
            other => panic!("{other:?} in the count column"),
        });
        (indexed, key_ids(&out, width).into_iter().zip(counts).collect())
    }

    /// The groups of `stream` as the reference has them: a key's rows
    /// counted in a `BTreeMap`, whose order is the output order.
    fn model(stream: &KeyStream) -> Groups {
        let mut groups: BTreeMap<Vec<Option<TermId>>, u64> = BTreeMap::new();
        for key in stream {
            *groups.entry(key.iter().map(|v| v.map(TermId)).collect()).or_default() += 1;
        }
        groups.into_iter().collect()
    }

    /// One-component keys.
    fn keys(ids: impl IntoIterator<Item = u32>) -> KeyStream {
        ids.into_iter().map(|k| vec![Some(k)]).collect()
    }

    #[test]
    fn a_falling_key_builds_the_index_and_joins_its_group_or_opens_one() {
        // Even keys, two rows each: the first row past two batches and
        // the 101st row of the third are the falls.
        let rising = keys((0..BATCH_ROWS as u32 + 100).flat_map(|k| [2 * k, 2 * k]));
        for rows in [2 * BATCH_ROWS, 2 * BATCH_ROWS + 200] {
            let before = rising[..rows].to_vec();
            assert_eq!(aggregate(&before, BATCH_ROWS), (false, model(&before)));
            // 10 is a group already, 11 is not; the keys after the fall
            // ascend through old and new groups and past every one.
            for fall in [10, 11] {
                let last = 2 * rows as u32;
                let mut stream = before.clone();
                stream.extend(keys((fall..fall + 40).chain(last..last + 50)));
                let (indexed, groups) = aggregate(&stream, BATCH_ROWS);
                assert!(indexed, "fall to {fall} after {rows} rows");
                assert_eq!(groups, model(&stream), "fall to {fall} after {rows} rows");
            }
        }
    }

    #[test]
    fn a_pair_whose_second_component_falls_finds_its_group() {
        for fall in [4, 5] {
            let mut stream = KeyStream::new();
            for x in 0..3 {
                stream.extend((0..BATCH_ROWS as u32).step_by(2).map(|y| vec![Some(x), Some(y)]));
                if x == 1 {
                    stream.extend((fall..fall + 20).map(|y| vec![Some(1), Some(y)]));
                }
            }
            let (indexed, groups) = aggregate(&stream, BATCH_ROWS);
            assert!(indexed, "fall to (1, {fall})");
            assert_eq!(groups, model(&stream), "fall to (1, {fall})");
        }
    }

    #[test]
    fn an_unbound_key_that_arrives_last_leaves_first() {
        // Alone it opens the unbound group; after an unbound key that
        // arrived first it joins that one.
        let rising = keys(0..BATCH_ROWS as u32 + 10);
        for (first, count) in [(KeyStream::new(), 1), (vec![vec![None]], 2)] {
            let mut stream = first;
            stream.extend(rising.iter().cloned());
            stream.push(vec![None]);
            let (indexed, groups) = aggregate(&stream, BATCH_ROWS);
            assert!(indexed);
            assert_eq!(groups, model(&stream));
            assert_eq!(groups[0], (vec![None], count));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Streams of long ascending stretches of one- or two-part keys,
        /// each stretch starting anywhere (below the last key onto an
        /// old group or a new one, or above it), a few keys unbound,
        /// cut into batches of any size, group as the model does. The
        /// index is built exactly when a key falls below the row
        /// before it.
        #[test]
        fn ascending_stretches_with_falls_group_as_the_model_does(
            width in 1usize..3,
            stretches in proptest::prop::collection::vec((0u32..4_000, 1u32..1_500, 1u32..4), 1..5),
            repeats in 1usize..3,
            holes in proptest::prop::collection::vec(0usize..1_000_000, 0..3),
            batch in 1usize..2 * BATCH_ROWS,
        ) {
            let mut stream = KeyStream::new();
            for (start, len, step) in stretches {
                for v in (start..).step_by(step as usize).take(len as usize) {
                    let key = match width {
                        1 => vec![Some(v)],
                        _ => vec![Some(v / 64), Some(v % 64)],
                    };
                    stream.extend(std::iter::repeat_n(key, repeats));
                }
            }
            for h in holes {
                let at = h % stream.len();
                stream[at][at % width] = None;
            }
            let falls = stream.windows(2).any(|w| w[1] < w[0]);
            proptest::prop_assert_eq!(aggregate(&stream, batch), (falls, model(&stream)));
        }
    }

    #[test]
    fn grouping_by_the_scan_order_builds_no_group_index() {
        // The POS scan streams by (object, subject): objects ascend,
        // subjects, interned last first, do not.
        let mut b = KbBuilder::new();
        for i in (0..2 * BATCH_ROWS).rev() {
            b.assert_str(&format!("s{i}"), "p", &format!("o{}", i % 50));
        }
        let s = b.freeze();
        let traced = |text: &str| {
            let p = plan(&parse(text).unwrap(), &s, &StatsCatalog::build(&s)).unwrap();
            execute_traced(&p, &s).1
        };
        let by_object = traced("SELECT ?o COUNT(?s) AS ?n WHERE { ?s p ?o } GROUP BY ?o");
        assert_eq!((by_object.groups, by_object.group_index), (50, false));
        let by_subject = traced("SELECT ?s COUNT(?o) AS ?n WHERE { ?s p ?o } GROUP BY ?s");
        assert_eq!((by_subject.groups, by_subject.group_index), (2 * BATCH_ROWS as u64, true));
        assert!(!traced("?s p ?o").group_index, "a plan that does not aggregate");
    }
}
