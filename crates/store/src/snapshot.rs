//! The read side of the storage engine: `FrozenIndexes` (compressed
//! frame-backed SPO/POS/OSP permutations answered by binary-search
//! range scans), the zero-alloc query iterators, the columnar batch
//! cursors, and the immutable, `Arc`-shareable [`KbSnapshot`].
//!
//! Index layout: each permutation stores four compressed
//! [`ColFrames`] columns — the three key components in permuted order
//! plus the fact id — alongside a per-leading-term offset column
//! (`starts`). A [`TriplePattern`] with a bound leading term jumps
//! straight to its bucket — `starts[t] .. starts[t + 1]` — in `O(1)`;
//! any remaining bound components narrow the bucket with binary
//! searches whose probes go through the *bitpacked* fact-id column
//! (constant-time random access) into the fact table, so point lookups
//! never pay a sequential frame decode. Scans then stream the bucket
//! through a `SegCursor`, which reads one frame-sized window at a time
//! (or takes a constant-time fid path for small ranges) and decodes
//! only the columns its rows are asked for: a key component the range
//! fixes — the bucket's leading term, and a narrowed second (and
//! third) term — is filled, not decoded, and the fact-id window is
//! decoded only when a row's fact is popped. The columnar batch path
//! never pops, so on a paged segment it faults no fact-id page and no
//! page of a fixed key column.
//!
//! One body builds every index — freeze, `snapshot`, compaction, the
//! delta freeze and the partition split: it fills one `(key, fact id)`
//! buffer with SPO keys, sorts it and encodes it column by column, one
//! frame at a time through one small buffer, then rotates every key
//! into the next permutation's order (SPO → POS → OSP) and sorts
//! again. Its peak beside the frames it keeps is 16 B a fact plus 4 B a
//! leading term; no column is ever materialized whole. The eager open
//! checks decoded frames the same way, one frame window at a time.
//!
//! The same cursors also serve layered views: a
//! [`SegmentedSnapshot`](crate::SegmentedSnapshot) opens one cursor
//! per segment and [`MatchIter`] k-way merges them by minimum key,
//! with the *newest* segment holding a key winning (shadowing) and
//! delta tombstones suppressing older assertions. Monolithic views
//! keep an empty delta stack and take the single-cursor fast path —
//! no merge overhead, no per-row allocation.
//!
//! [`MatchBatches`] is the vectorized face of the same machinery: it
//! emits ~[`BATCH_ROWS`]-row columnar [`TripleBatch`]es, splicing the
//! decoded key windows directly into the output columns on the
//! monolithic unfiltered path (no per-row iterator step, no fact-table
//! deref).

use std::sync::{Arc, OnceLock};

use crate::builder::KbCore;
use crate::error::StoreError;
use crate::fact::{Fact, Triple};
use crate::frames::{ColEncoder, ColFrames, FRAME_ROWS};
use crate::ids::{FactId, TermId};
use crate::idtable::EMPTY;
use crate::labels::LabelStore;
use crate::pattern::{IndexChoice, TriplePattern};
use crate::read::{Group, Groups, KbRead};
use crate::sameas::SameAsStore;
use crate::segmap::{FrameRegion, PageCursor, PagedCol, SegmentSource, FRAME_COLS};
use crate::segment::DeltaSegment;
use crate::segment_io::RegionEntry;
use crate::taxonomy::Taxonomy;
use crate::time::TimePoint;
use crate::Dictionary;
use crate::SourceId;

pub(crate) type Key = (TermId, TermId, TermId);

/// Rows per columnar batch emitted by [`MatchBatches`] (and the query
/// engine's binding batches). Matches the frame size so the monolithic
/// fast path can splice whole decoded windows.
pub const BATCH_ROWS: usize = 1024;

/// Ranges at or below this size fill their cursor window — all three
/// keys and the fact ids — through the `O(1)` bitpacked fact-id column
/// and the fact table instead of decoding key frames: point lookups and
/// narrow joins never pay a varint prefix decode. Larger ranges decode
/// only the key columns the range does not fix, and fact ids on demand
/// (see `SegCursor`).
const SMALL_SCAN: usize = 64;

/// Permutes a triple into one index's key order.
fn permute(choice: IndexChoice, t: &Triple) -> Key {
    match choice {
        IndexChoice::Spo => t.spo_key(),
        IndexChoice::Pos => t.pos_key(),
        IndexChoice::Osp => t.osp_key(),
    }
}

/// Inverts a permuted index key back into the `(s, p, o)` triple.
fn unpermute(choice: IndexChoice, k: Key) -> Triple {
    match choice {
        IndexChoice::Spo => Triple::new(k.0, k.1, k.2),
        IndexChoice::Pos => Triple::new(k.2, k.0, k.1),
        IndexChoice::Osp => Triple::new(k.1, k.2, k.0),
    }
}

/// One compressed permutation: the three key columns in permuted order
/// plus the fact-id column. Key columns may use any frame encoding;
/// the fact-id column is always bitpacked so random probes are `O(1)`.
#[derive(Debug, Default, Clone)]
pub(crate) struct PermFrames {
    k0: ColFrames,
    k1: ColFrames,
    k2: ColFrames,
    fid: ColFrames,
}

impl PermFrames {
    /// Sorts `entries` and encodes them as one permutation plus its
    /// offset column, each column in turn one [`FRAME_ROWS`]-row frame
    /// at a time through one small buffer: no column is ever
    /// materialized, and one column's payload grows at a time.
    fn build(entries: &mut [(Key, FactId)]) -> (Self, ColFrames) {
        entries.sort_unstable();
        let starts = starts_from_leading(entries.iter().map(|e| e.0 .0 .0));
        let starts = ColFrames::from_values_packed(&starts);
        let mut frame = Vec::with_capacity(FRAME_ROWS);
        let mut encode = |allow_varint: bool, field: fn(&(Key, FactId)) -> u32| {
            let mut col = ColEncoder::new(entries.len(), allow_varint);
            for chunk in entries.chunks(FRAME_ROWS) {
                frame.clear();
                frame.extend(chunk.iter().map(field));
                col.push(&frame);
            }
            col.finish()
        };
        let k0 = encode(true, |e| e.0 .0 .0);
        let k1 = encode(true, |e| e.0 .1 .0);
        let k2 = encode(true, |e| e.0 .2 .0);
        // The fact-id column backs `O(1)` probes: no varint frames.
        let fid = encode(false, |e| e.1 .0);
        (Self { k0, k1, k2, fid }, starts)
    }

    pub(crate) fn from_cols(k0: ColFrames, k1: ColFrames, k2: ColFrames, fid: ColFrames) -> Self {
        Self { k0, k1, k2, fid }
    }

    pub(crate) fn len(&self) -> usize {
        self.fid.len()
    }

    pub(crate) fn cols(&self) -> [&ColFrames; 4] {
        [&self.k0, &self.k1, &self.k2, &self.fid]
    }
}

/// A cursor's handle on one permutation's four columns (`k0, k1, k2,
/// fid`): either borrowed from resident [`EagerIndexes`] (zero cost) or
/// one [`PageCursor`] per column of a lazily opened segment, each
/// pinning the page it reads when it reads it — a probe that only asks
/// the fact-id column faults nothing of the key columns.
#[derive(Debug, Clone)]
pub(crate) enum PermRef<'a> {
    Borrowed(&'a PermFrames),
    Paged([PageCursor<'a>; 4]),
}

impl PermRef<'_> {
    fn len(&self) -> usize {
        match self {
            PermRef::Borrowed(p) => p.len(),
            PermRef::Paged(cols) => cols[3].len(),
        }
    }
}

/// Prefix-sum offsets over a sorted run of leading keys:
/// `starts[t] .. starts[t + 1]` brackets term `t`'s entries. Terms past
/// the largest seen leading id have no slot (callers treat out-of-range
/// as empty).
fn starts_from_leading(leading: impl DoubleEndedIterator<Item = u32> + Clone) -> Vec<u32> {
    let top = leading.clone().next_back().map_or(0, |a| a as usize + 1);
    let mut starts = vec![0u32; top + 1];
    for a in leading {
        starts[a as usize + 1] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    starts
}

/// Turns every key into the next permutation's by rotating it left:
/// SPO `(s, p, o)` → POS `(p, o, s)` → OSP `(o, s, p)`.
fn rotate_keys(entries: &mut [(Key, FactId)]) {
    for ((a, b, c), _) in entries {
        (*a, *b, *c) = (*b, *c, *a);
    }
}

/// Binary search: the first `i` in `[lo, hi)` with `!below(i)`.
fn partition(mut lo: usize, mut hi: usize, mut below: impl FnMut(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Size and compression accounting for a set of frozen indexes.
/// `raw_bytes` is what the pre-compression layout (16-byte
/// key+fact-id entries plus 4-byte bucket slots) would occupy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Permutation entries across the three indexes.
    pub entries: usize,
    /// Offset-bucket slots across the three indexes.
    pub bucket_slots: usize,
    /// Compression frames across all columns.
    pub frames: usize,
    /// Resident bytes of the compressed columns.
    pub compressed_bytes: usize,
    /// Bytes the uncompressed sorted-array layout would use.
    pub raw_bytes: usize,
}

impl IndexStats {
    /// Accumulates another segment's stats (for segmented views).
    pub fn absorb(&mut self, other: &IndexStats) {
        self.entries += other.entries;
        self.bucket_slots += other.bucket_slots;
        self.frames += other.frames;
        self.compressed_bytes += other.compressed_bytes;
        self.raw_bytes += other.raw_bytes;
    }

    /// Fraction of the raw layout saved by compression, in `[0, 1]`.
    pub fn saved_ratio(&self) -> f64 {
        if self.raw_bytes == 0 {
            return 0.0;
        }
        1.0 - self.compressed_bytes as f64 / self.raw_bytes as f64
    }
}

/// The three compressed permutation indexes of a frozen store, fully
/// resident in memory — the build-side and small-segment form of
/// [`FrozenIndexes`].
#[derive(Debug, Default, Clone)]
pub(crate) struct EagerIndexes {
    spo: PermFrames,
    pos: PermFrames,
    osp: PermFrames,
    spo_starts: ColFrames,
    pos_starts: ColFrames,
    osp_starts: ColFrames,
}

impl EagerIndexes {
    /// The one index build (see the module docs): one entries buffer,
    /// sorted and encoded frame by frame for each permutation in turn.
    fn build(facts: &[Fact], include_retracted: bool) -> Self {
        let mut entries: Vec<(Key, FactId)> = Vec::with_capacity(facts.len());
        entries.extend(
            facts
                .iter()
                .enumerate()
                .filter(|(_, f)| include_retracted || !f.is_retracted())
                .map(|(i, f)| (f.triple.spo_key(), FactId(i as u32))),
        );
        let (spo, spo_starts) = PermFrames::build(&mut entries);
        rotate_keys(&mut entries);
        let (pos, pos_starts) = PermFrames::build(&mut entries);
        rotate_keys(&mut entries);
        let (osp, osp_starts) = PermFrames::build(&mut entries);
        Self { spo, pos, osp, spo_starts, pos_starts, osp_starts }
    }

    /// The fifteen compressed columns in serialization order: for each
    /// of SPO/POS/OSP the `k0,k1,k2,fid` columns, then the three starts
    /// columns.
    pub(crate) fn frame_cols(&self) -> [&ColFrames; 15] {
        let [s0, s1, s2, s3] = self.spo.cols();
        let [p0, p1, p2, p3] = self.pos.cols();
        let [o0, o1, o2, o3] = self.osp.cols();
        [
            s0,
            s1,
            s2,
            s3,
            p0,
            p1,
            p2,
            p3,
            o0,
            o1,
            o2,
            o3,
            &self.spo_starts,
            &self.pos_starts,
            &self.osp_starts,
        ]
    }

    /// Size and compression accounting across every column.
    pub(crate) fn stats(&self) -> IndexStats {
        let mut st = IndexStats {
            entries: 3 * self.spo.len(),
            bucket_slots: self.spo_starts.len() + self.pos_starts.len() + self.osp_starts.len(),
            ..IndexStats::default()
        };
        for col in self.frame_cols() {
            st.frames += col.n_frames();
            st.compressed_bytes += col.compressed_bytes();
        }
        // A raw entry is a 12-byte key plus a 4-byte fact id; a raw
        // bucket slot is one u32.
        st.raw_bytes = st.entries * 16 + st.bucket_slots * 4;
        st
    }

    /// Reassembles frozen indexes straight from deserialized compressed
    /// columns — the frames are validated against the fact table but
    /// *not* re-encoded, which is what keeps the eager cold open linear.
    /// Each permutation is walked one decoded frame window at a time, so
    /// the check holds four [`FRAME_ROWS`]-row buffers, never a column.
    ///
    /// `expected_len` is the entry count every permutation must have
    /// (live facts for a base segment, all facts for a delta);
    /// `is_base` additionally forbids retracted facts in the index.
    pub(crate) fn from_frames(
        facts: &[Fact],
        expected_len: usize,
        is_base: bool,
        perms: [PermFrames; 3],
        starts: [ColFrames; 3],
    ) -> Result<Self, crate::StoreError> {
        use crate::error::SegmentRegion;
        let corrupt =
            |detail: String| crate::StoreError::Corrupt { region: SegmentRegion::Frames, detail };
        let validate = |perm: &PermFrames,
                        starts: &ColFrames,
                        key_of: fn(&Triple) -> Key|
         -> Result<(), crate::StoreError> {
            for col in perm.cols() {
                if col.len() != expected_len {
                    return Err(corrupt(format!(
                        "permutation column has {} rows, expected {expected_len}",
                        col.len()
                    )));
                }
            }
            if perm.fid.has_varint() || starts.has_varint() {
                return Err(corrupt("sequential-only encoding in a random-access column".into()));
            }
            // One decoded frame window of each column at a time; the
            // buckets are checked against the running prefix of `k0`:
            // every slot up to a row's leading term must equal that
            // row's index, and the slot past the last term the row count.
            let mut window: [Vec<u32>; 4] = Default::default();
            let mut prev: Option<Key> = None;
            let mut slot = 0usize;
            let bucket_err =
                || corrupt("offset buckets disagree with the permutation entries".into());
            for from in (0..expected_len).step_by(FRAME_ROWS) {
                let to = expected_len.min(from + FRAME_ROWS);
                for (buf, col) in window.iter_mut().zip(perm.cols()) {
                    buf.clear();
                    col.decode_range(from, to, buf);
                }
                let [k0, k1, k2, fids] = &window;
                for (j, &id) in fids.iter().enumerate() {
                    let fact = facts.get(id as usize).ok_or_else(|| {
                        corrupt(format!("fact id {id} out of range ({} facts)", facts.len()))
                    })?;
                    if is_base && fact.is_retracted() {
                        return Err(corrupt("retracted fact indexed in a base segment".into()));
                    }
                    let key = key_of(&fact.triple);
                    if (key.0 .0, key.1 .0, key.2 .0) != (k0[j], k1[j], k2[j]) {
                        return Err(corrupt("key columns disagree with the fact table".into()));
                    }
                    if prev.is_some_and(|p| p > key) {
                        return Err(corrupt("permutation column is not sorted".into()));
                    }
                    prev = Some(key);
                    let row = (from + j) as u32;
                    while slot <= key.0.index() {
                        if slot >= starts.len() || starts.get(slot) != row {
                            return Err(bucket_err());
                        }
                        slot += 1;
                    }
                }
            }
            if starts.len() != slot + 1 || starts.get(slot) != expected_len as u32 {
                return Err(bucket_err());
            }
            Ok(())
        };
        let [spo, pos, osp] = perms;
        let [spo_starts, pos_starts, osp_starts] = starts;
        let (r_spo, r_pos, r_osp) = std::thread::scope(|s| {
            let rp = s.spawn(|| validate(&pos, &pos_starts, |t| t.pos_key()));
            let ro = s.spawn(|| validate(&osp, &osp_starts, |t| t.osp_key()));
            let rs = validate(&spo, &spo_starts, |t| t.spo_key());
            (rs, rp.join().expect("pos validate"), ro.join().expect("osp validate"))
        });
        r_spo?;
        r_pos?;
        r_osp?;
        Ok(Self { spo, pos, osp, spo_starts, pos_starts, osp_starts })
    }
}

/// The bucket of leading term `a` — `starts[a] .. starts[a + 1]`, an
/// `O(1)` lookup in the offset column (`starts`, `slots` long) — or the
/// whole permutation when `a` is unbound, which `choose_index` only
/// allows for the all-wildcard pattern. A term past the largest leading
/// id has no slot and an empty bucket.
fn bucket(
    a: Option<TermId>,
    rows: usize,
    slots: usize,
    mut starts: impl FnMut(usize) -> u32,
) -> (usize, usize) {
    match a.map(TermId::index) {
        None => (0, rows),
        Some(i) if i + 1 >= slots => (0, 0),
        Some(i) => (starts(i) as usize, starts(i + 1) as usize),
    }
}

/// Narrows the leading term's bucket `(lo, hi)` by the remaining bound
/// components `(b, c)` (in the permutation's key order) with binary
/// searches over `key_at`.
fn narrow(
    (lo, hi): (usize, usize),
    (b, c): (Option<TermId>, Option<TermId>),
    mut key_at: impl FnMut(usize) -> Key,
) -> (usize, usize) {
    match (b, c) {
        (None, _) => (lo, hi),
        (Some(b), None) => {
            let s = partition(lo, hi, |i| key_at(i).1 < b);
            let e = partition(s, hi, |i| key_at(i).1 <= b);
            (s, e)
        }
        (Some(b), Some(c)) => {
            let mut key12 = |i| {
                let k = key_at(i);
                (k.1, k.2)
            };
            let s = partition(lo, hi, |i| key12(i) < (b, c));
            let e = partition(s, hi, |i| key12(i) <= (b, c));
            (s, e)
        }
    }
}

/// Opens a cursor over the rows of leading term `a`'s bucket `range`
/// that answer `pattern` ([`narrow`]ed by `bc`; a key is probed through
/// the `O(1)` fact-id column and the fact table, never the possibly
/// varint key columns), plus the post-filter kept for the `s?o` shape
/// (its range is already exact; the filter only preserves the
/// conservative size hint). Every row of the range holds `a`, `b`, and
/// `c` when `b` is bound, so the cursor fills those instead of
/// decoding them.
fn locate<'a>(
    mut perm: PermRef<'a>,
    (a, range): (Option<TermId>, (usize, usize)),
    bc: (Option<TermId>, Option<TermId>),
    pattern: &TriplePattern,
    facts: &'a [Fact],
    choice: IndexChoice,
) -> (SegCursor<'a>, Option<TriplePattern>) {
    let filter = (pattern.bound_count() == 2 && pattern.p.is_none()).then_some(*pattern);
    let key_of = |id: u32| permute(choice, &facts[id as usize].triple);
    let rows = match &mut perm {
        PermRef::Borrowed(p) => narrow(range, bc, |i| key_of(p.fid.get(i))),
        PermRef::Paged(cols) => narrow(range, bc, |i| key_of(cols[3].get(i))),
    };
    let fixed = [a, bc.0, bc.0.and(bc.1)];
    (SegCursor::new(perm, facts, choice, rows, fixed), filter)
}

/// The three permutation columns of a lazily opened segment: fifteen
/// budget-managed [`PagedCol`]s over one checksummed [`FrameRegion`], in
/// serialization order (SPO/POS/OSP × `k0,k1,k2,fid`, then the three
/// starts columns). Pages of a column materialize on first touch and
/// may be spilled back to disk by the budget's clock sweep.
#[derive(Debug, Clone)]
pub(crate) struct LazyIndexes {
    region: Arc<FrameRegion>,
    cols: [Arc<PagedCol>; FRAME_COLS],
}

impl LazyIndexes {
    pub(crate) fn new(region: Arc<FrameRegion>, cols: [Arc<PagedCol>; FRAME_COLS]) -> Self {
        Self { region, cols }
    }
}

/// The three compressed permutation indexes of a frozen store, each
/// paired with a per-leading-term offset column.
///
/// Built once from the fact table in `O(n log n)`; answering a pattern
/// with a bound leading term is an `O(1)` bucket lookup plus
/// `O(log b)` fid-probe narrowing for a bucket of size `b`, with an
/// exact count in the same bounds for every shape.
///
/// `Eager` indexes are fully resident (the build side and every write
/// path); `Lazy` indexes page their columns in from a segment file on
/// demand under a [`MemoryBudget`](crate::MemoryBudget).
// The size skew is deliberate: there is one `FrozenIndexes` per open
// segment (not per row), and boxing the eager side would cost an
// indirection on every cursor dispatch.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum FrozenIndexes {
    Eager(EagerIndexes),
    Lazy(LazyIndexes),
}

impl Default for FrozenIndexes {
    fn default() -> Self {
        FrozenIndexes::Eager(EagerIndexes::default())
    }
}

impl FrozenIndexes {
    /// Indexes every live fact in `facts` (retracted entries are
    /// skipped, so they never appear in query results).
    pub(crate) fn build(facts: &[Fact]) -> Self {
        let obs = kb_obs::global();
        let span = obs.span("store.snapshot.freeze_us");
        let built = EagerIndexes::build(facts, false);
        span.stop();
        obs.counter("store.snapshot.freezes").inc();
        // Three permutation arrays plus their offset buckets.
        obs.gauge("store.index.entries").set((3 * built.spo.len()) as i64);
        obs.gauge("store.index.bucket_slots").set((3 * built.spo_starts.len()) as i64);
        FrozenIndexes::Eager(built)
    }

    /// Indexes every fact *including* retracted ones — the delta-segment
    /// build. A delta's tombstones must be present in its permutation
    /// arrays so the k-way merge sees their keys and lets them shadow
    /// (suppress) the base segment's assertions.
    pub(crate) fn build_with_tombstones(facts: &[Fact]) -> Self {
        let obs = kb_obs::global();
        let span = obs.span("store.delta.freeze_us");
        let built = EagerIndexes::build(facts, true);
        span.stop();
        obs.counter("store.delta.freezes").inc();
        FrozenIndexes::Eager(built)
    }

    /// See [`EagerIndexes::from_frames`].
    pub(crate) fn from_frames(
        facts: &[Fact],
        expected_len: usize,
        is_base: bool,
        perms: [PermFrames; 3],
        starts: [ColFrames; 3],
    ) -> Result<Self, crate::StoreError> {
        EagerIndexes::from_frames(facts, expected_len, is_base, perms, starts)
            .map(FrozenIndexes::Eager)
    }

    fn eager(&self) -> &EagerIndexes {
        match self {
            FrozenIndexes::Eager(ix) => ix,
            FrozenIndexes::Lazy(_) => panic!(
                "operation requires fully resident indexes, but this snapshot was opened \
                 lazily (write paths always construct eager snapshots)"
            ),
        }
    }

    /// The fifteen compressed columns in serialization order. Panics on
    /// lazily opened indexes.
    pub(crate) fn frame_cols(&self) -> [&ColFrames; 15] {
        self.eager().frame_cols()
    }

    /// Size and compression accounting. For lazy indexes this comes
    /// from the on-disk layout (no column is faulted in); a damaged
    /// region reports zeros rather than failing a diagnostics call.
    pub(crate) fn stats(&self) -> IndexStats {
        match self {
            FrozenIndexes::Eager(ix) => ix.stats(),
            FrozenIndexes::Lazy(ix) => {
                let mut st = IndexStats::default();
                let Ok(entries) = ix.region.col_len(3) else { return st };
                st.entries = 3 * entries;
                for i in 12..FRAME_COLS {
                    st.bucket_slots += ix.region.col_len(i).unwrap_or(0);
                }
                for i in 0..FRAME_COLS {
                    st.frames += ix.region.col_frames(i).unwrap_or(0);
                    st.compressed_bytes += ix.region.col_bytes(i).unwrap_or(0);
                }
                st.raw_bytes = st.entries * 16 + st.bucket_slots * 4;
                st
            }
        }
    }

    /// Verifies what can be verified without reading the columns,
    /// surfacing cold corruption as a typed error. Eager indexes were
    /// validated at construction; lazy indexes verify the frames region
    /// CRC, walk its layout and validate all fifteen columns' frame
    /// descriptors (which stay resident). A page's payload is still
    /// checked when it is first touched.
    pub(crate) fn prefault(&self) -> Result<(), StoreError> {
        match self {
            FrozenIndexes::Eager(_) => Ok(()),
            FrozenIndexes::Lazy(ix) => ix.cols.iter().try_for_each(|col| col.prefault()),
        }
    }

    /// Locates the row range answering `pattern` and opens a cursor
    /// over it (see [`bucket`] and [`locate`]). On lazy indexes nothing
    /// is pinned that is not read: the bucket lookup touches one page
    /// of the starts column, narrowing the fid pages it probes, and the
    /// cursor pins the pages of the columns it decodes as it scans —
    /// never a key column the range fixes, and fact-id pages only for a
    /// scan that asks for facts.
    pub(crate) fn cursor<'a>(
        &'a self,
        pattern: &TriplePattern,
        facts: &'a [Fact],
    ) -> (SegCursor<'a>, Option<TriplePattern>) {
        let choice = pattern.choose_index();
        // The pattern components in the permutation's key order.
        let (a, bc) = match choice {
            IndexChoice::Spo => (pattern.s, (pattern.p, pattern.o)),
            IndexChoice::Pos => (pattern.p, (pattern.o, pattern.s)),
            IndexChoice::Osp => (pattern.o, (pattern.s, pattern.p)),
        };
        let (perm, range) = match self {
            FrozenIndexes::Eager(ix) => {
                let (perm, starts) = match choice {
                    IndexChoice::Spo => (&ix.spo, &ix.spo_starts),
                    IndexChoice::Pos => (&ix.pos, &ix.pos_starts),
                    IndexChoice::Osp => (&ix.osp, &ix.osp_starts),
                };
                let range = bucket(a, perm.len(), starts.len(), |i| starts.get(i));
                (PermRef::Borrowed(perm), range)
            }
            FrozenIndexes::Lazy(ix) => {
                let (first, starts_col) = match choice {
                    IndexChoice::Spo => (0, 12),
                    IndexChoice::Pos => (4, 13),
                    IndexChoice::Osp => (8, 14),
                };
                let perm =
                    PermRef::Paged(std::array::from_fn(|c| PageCursor::new(&ix.cols[first + c])));
                let mut starts = PageCursor::new(&ix.cols[starts_col]);
                let range = bucket(a, perm.len(), starts.len(), |i| starts.get(i));
                (perm, range)
            }
        };
        locate(perm, (a, range), bc, pattern, facts, choice)
    }
}

/// One segment's contribution to a merged scan: a row range of one
/// permutation plus the segment's fact table. A range above
/// [`SMALL_SCAN`] rows is read one frame-sized window at a time, and a
/// window decodes only the columns its rows are asked for: a key
/// component the whole range holds (the bucket's leading term, and the
/// terms [`narrow`] bound) is filled with that term, the other key
/// columns are decoded, and the fact-id column is decoded on the
/// window's first [`pop`](Self::pop) — a batch or key scan never reads
/// it. A smaller range fills its keys and fact ids through the `O(1)`
/// fact-id column instead, so point lookups never pay a frame decode.
#[derive(Debug, Clone)]
pub(crate) struct SegCursor<'a> {
    perm: PermRef<'a>,
    facts: &'a [Fact],
    choice: IndexChoice,
    /// Next row to yield (absolute).
    pos: usize,
    /// Exclusive end of the selected range (absolute).
    end: usize,
    /// The key components every row of the range holds, in key order.
    fixed: [Option<TermId>; 3],
    /// Absolute row of the window's first element.
    win_start: usize,
    /// The window's key columns in key order, each the window's length.
    keys: [Vec<u32>; 3],
    /// The window's fact ids; empty until the window's first `pop`.
    fid: Vec<u32>,
}

impl<'a> SegCursor<'a> {
    fn new(
        perm: PermRef<'a>,
        facts: &'a [Fact],
        choice: IndexChoice,
        (pos, end): (usize, usize),
        fixed: [Option<TermId>; 3],
    ) -> Self {
        Self {
            perm,
            facts,
            choice,
            pos,
            end,
            fixed,
            win_start: pos,
            keys: Default::default(),
            fid: Vec::new(),
        }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.end - self.pos
    }

    fn fill(&mut self) {
        self.keys.iter_mut().for_each(Vec::clear);
        self.fid.clear();
        self.win_start = self.pos;
        if self.pos >= self.end {
            return;
        }
        let Self { perm, facts, choice, pos, end, fixed, keys, fid, .. } = self;
        let rows = *pos..*end;
        if rows.len() <= SMALL_SCAN {
            // Small range: O(1) fid probes + fact-table derefs beat
            // decoding (possibly varint) key frames.
            let [k0, k1, k2] = keys;
            let mut push = |id: u32| {
                let (a, b, c) = permute(*choice, &facts[id as usize].triple);
                k0.push(a.0);
                k1.push(b.0);
                k2.push(c.0);
                fid.push(id);
            };
            match perm {
                PermRef::Borrowed(p) => rows.for_each(|i| push(p.fid.get(i))),
                PermRef::Paged(cols) => rows.for_each(|i| push(cols[3].get(i))),
            }
            return;
        }
        // Decode to the end of the current frame (keeps every later
        // fill frame-aligned, so varint frames decode exactly once).
        let (from, stop) = (rows.start, rows.end.min((rows.start / FRAME_ROWS + 1) * FRAME_ROWS));
        match perm {
            PermRef::Borrowed(p) => {
                for ((out, col), term) in keys.iter_mut().zip([&p.k0, &p.k1, &p.k2]).zip(*fixed) {
                    match term {
                        Some(t) => out.resize(stop - from, t.0),
                        None => col.decode_range(from, stop, out),
                    }
                }
            }
            PermRef::Paged(cols) => {
                for ((out, col), term) in keys.iter_mut().zip(cols.iter_mut()).zip(*fixed) {
                    match term {
                        Some(t) => out.resize(stop - from, t.0),
                        None => col.decode_range(from, stop, out),
                    }
                }
            }
        }
    }

    /// Decodes the fact ids of a frame-decoded window.
    fn fill_fids(&mut self) {
        let (from, stop) = (self.win_start, self.win_start + self.keys[0].len());
        match &mut self.perm {
            PermRef::Borrowed(p) => p.fid.decode_range(from, stop, &mut self.fid),
            PermRef::Paged(cols) => cols[3].decode_range(from, stop, &mut self.fid),
        }
    }

    #[inline]
    fn ensure(&mut self) {
        if self.pos >= self.win_start + self.keys[0].len() {
            self.fill();
        }
    }

    #[inline]
    fn idx(&self) -> usize {
        self.pos - self.win_start
    }

    pub(crate) fn peek_key(&mut self) -> Option<Key> {
        if self.pos >= self.end {
            return None;
        }
        self.ensure();
        let i = self.idx();
        let [k0, k1, k2] = &self.keys;
        Some((TermId(k0[i]), TermId(k1[i]), TermId(k2[i])))
    }

    pub(crate) fn pop(&mut self) -> Option<(Key, &'a Fact)> {
        let key = self.peek_key()?;
        if self.fid.is_empty() {
            self.fill_fids();
        }
        let facts: &'a [Fact] = self.facts;
        let fact = &facts[self.fid[self.idx()] as usize];
        self.pos += 1;
        Some((key, fact))
    }

    pub(crate) fn pop_key(&mut self) -> Option<Key> {
        let key = self.peek_key()?;
        self.pos += 1;
        Some(key)
    }

    /// The key windows at the cursor head, in key order (all three the
    /// same length; empty iff exhausted). Consume with
    /// [`skip`](Self::skip).
    pub(crate) fn windows(&mut self) -> [&[u32]; 3] {
        if self.pos >= self.end {
            return [&[]; 3];
        }
        self.ensure();
        let i = self.idx();
        let [k0, k1, k2] = &self.keys;
        [&k0[i..], &k1[i..], &k2[i..]]
    }

    pub(crate) fn skip(&mut self, n: usize) {
        debug_assert!(self.pos + n <= self.end);
        self.pos += n;
    }
}

/// Streaming cursor over the live facts matching one [`TriplePattern`],
/// in permutation-index order. Yields `&Fact` without allocating.
///
/// For a monolithic view this walks one cursor. For a
/// [`SegmentedSnapshot`](crate::SegmentedSnapshot) it k-way merges the
/// base cursor with one cursor per delta segment: at each step the
/// minimum key across cursor heads is taken, every cursor sitting on
/// that key is advanced (dedup), and the *newest* holder's fact wins —
/// so a delta's evidence-merge shadows the base and a delta tombstone
/// (retracted fact, indexed only in deltas) suppresses the key
/// entirely.
///
/// Returned by [`KbRead::matching_iter`].
#[derive(Debug, Clone)]
pub struct MatchIter<'a> {
    /// Base (oldest) segment cursor.
    head: SegCursor<'a>,
    /// Delta cursors, oldest → newest. Empty for monolithic views,
    /// which keep the single-cursor fast path.
    deltas: Vec<SegCursor<'a>>,
    filter: Option<TriplePattern>,
}

impl<'a> MatchIter<'a> {
    /// `head` is the oldest run's cursor; `deltas` follow in the order
    /// [`KbRead::matching_iter`] lays out (the later holder of a key
    /// wins).
    pub(crate) fn new(
        head: SegCursor<'a>,
        deltas: Vec<SegCursor<'a>>,
        filter: Option<TriplePattern>,
    ) -> Self {
        Self { head, deltas, filter }
    }

    /// Consumes the cursor and returns the exact number of remaining
    /// matches — `O(1)` for every monolithic shape except `s?o`;
    /// segmented views must walk the merge (shadowing and tombstones
    /// make the count data-dependent).
    pub(crate) fn exact_count(self) -> usize {
        if self.deltas.is_empty() && self.filter.is_none() {
            return self.head.remaining();
        }
        self.count()
    }

    /// The k-way merge step: yields the authoritative fact for the next
    /// smallest key across all segment cursors, skipping tombstones.
    /// Only called on segmented views (`deltas` non-empty).
    fn merge_next(&mut self) -> Option<&'a Fact> {
        loop {
            let mut min: Option<Key> = self.head.peek_key();
            for c in self.deltas.iter_mut() {
                if let Some(k) = c.peek_key() {
                    if min.is_none_or(|m| k < m) {
                        min = Some(k);
                    }
                }
            }
            let min = min?;
            // Advance every cursor sitting on the key; cursors run
            // oldest → newest, so the last holder is authoritative.
            let mut winner: Option<&'a Fact> = None;
            if self.head.peek_key() == Some(min) {
                winner = Some(self.head.pop().expect("head holds the min key").1);
            }
            for c in self.deltas.iter_mut() {
                if c.peek_key() == Some(min) {
                    winner = Some(c.pop().expect("delta holds the min key").1);
                }
            }
            let fact = winner.expect("the min key has at least one holder");
            // A retracted winner is a tombstone: the key is suppressed.
            if !fact.is_retracted() {
                return Some(fact);
            }
        }
    }
}

impl<'a> Iterator for MatchIter<'a> {
    type Item = &'a Fact;

    fn next(&mut self) -> Option<&'a Fact> {
        if self.deltas.is_empty() {
            while let Some((_, fact)) = self.head.pop() {
                match self.filter {
                    None => return Some(fact),
                    Some(p) if p.matches(&fact.triple) => return Some(fact),
                    Some(_) => {}
                }
            }
            return None;
        }
        while let Some(fact) = self.merge_next() {
            match self.filter {
                None => return Some(fact),
                Some(p) if p.matches(&fact.triple) => return Some(fact),
                Some(_) => {}
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.head.remaining() + self.deltas.iter().map(|c| c.remaining()).sum::<usize>();
        if self.deltas.is_empty() && self.filter.is_none() {
            (n, Some(n))
        } else {
            // Post-filtering, shadowing and tombstones can only shrink.
            (0, Some(n))
        }
    }
}

/// Streaming cursor over matching triples (projection of
/// [`MatchIter`]). Returned by [`KbRead::triples_iter`].
///
/// On a monolithic view each triple is reconstructed by un-permuting
/// the decoded index key — the fact table is never touched, so a
/// triple projection stays inside the decoded frame windows. A
/// segmented view must consult the winning fact anyway (tombstone
/// check), so it projects the merged fact's triple.
#[derive(Debug, Clone)]
pub struct TriplesIter<'a>(pub(crate) MatchIter<'a>);

impl Iterator for TriplesIter<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        let it = &mut self.0;
        if it.deltas.is_empty() {
            let choice = it.head.choice;
            while let Some(k) = it.head.pop_key() {
                let t = unpermute(choice, k);
                match it.filter {
                    None => return Some(t),
                    Some(p) if p.matches(&t) => return Some(t),
                    Some(_) => {}
                }
            }
            return None;
        }
        while let Some(fact) = it.merge_next() {
            match it.filter {
                None => return Some(fact.triple),
                Some(p) if p.matches(&fact.triple) => return Some(fact.triple),
                Some(_) => {}
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

/// A columnar batch of matching triples: three parallel `TermId`
/// columns, at most [`BATCH_ROWS`] rows. The unit of vectorized
/// execution — filled by [`MatchBatches`] and consumed by the query
/// engine's batch operators.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct TripleBatch {
    /// Subject column.
    pub s: Vec<TermId>,
    /// Predicate column.
    pub p: Vec<TermId>,
    /// Object column.
    pub o: Vec<TermId>,
}

impl TripleBatch {
    /// An empty batch with [`BATCH_ROWS`] capacity per column.
    pub fn new() -> Self {
        Self {
            s: Vec::with_capacity(BATCH_ROWS),
            p: Vec::with_capacity(BATCH_ROWS),
            o: Vec::with_capacity(BATCH_ROWS),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.s.len()
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.s.is_empty()
    }

    /// Drops all rows, keeping capacity.
    pub fn clear(&mut self) {
        self.s.clear();
        self.p.clear();
        self.o.clear();
    }

    /// Appends one triple.
    pub fn push(&mut self, t: Triple) {
        self.s.push(t.s);
        self.p.push(t.p);
        self.o.push(t.o);
    }

    /// The triple at row `i`.
    pub fn row(&self, i: usize) -> Triple {
        Triple::new(self.s[i], self.p[i], self.o[i])
    }
}

/// Vectorized face of [`MatchIter`]: fills columnar [`TripleBatch`]es
/// of up to [`BATCH_ROWS`] rows. On the monolithic unfiltered path the
/// decoded frame windows are spliced straight into the output columns —
/// no per-row iterator step, no fact-table deref. Segmented or
/// filtered scans fall back to the (still correct) row-at-a-time merge.
///
/// Returned by
/// [`KbReadBatch::matching_batches`](crate::read::KbReadBatch::matching_batches).
#[derive(Debug, Clone)]
pub struct MatchBatches<'a> {
    inner: MatchIter<'a>,
}

impl<'a> MatchBatches<'a> {
    pub(crate) fn new(inner: MatchIter<'a>) -> Self {
        Self { inner }
    }

    /// Exact remaining rows where the underlying scan knows them
    /// (monolithic unfiltered), else an upper bound.
    pub fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    /// Fills `out` (cleared first) with the next batch. Returns `false`
    /// when the scan is exhausted and no rows were produced.
    pub fn next_batch(&mut self, out: &mut TripleBatch) -> bool {
        out.clear();
        let it = &mut self.inner;
        if it.deltas.is_empty() && it.filter.is_none() {
            // Columnar fast path: splice decoded windows.
            let choice = it.head.choice;
            while out.len() < BATCH_ROWS {
                let take = {
                    let [k0, k1, k2] = it.head.windows();
                    if k0.is_empty() {
                        break;
                    }
                    let take = k0.len().min(BATCH_ROWS - out.len());
                    let (s, p, o) = match choice {
                        IndexChoice::Spo => (k0, k1, k2),
                        IndexChoice::Pos => (k2, k0, k1),
                        IndexChoice::Osp => (k1, k2, k0),
                    };
                    out.s.extend(s[..take].iter().map(|&v| TermId(v)));
                    out.p.extend(p[..take].iter().map(|&v| TermId(v)));
                    out.o.extend(o[..take].iter().map(|&v| TermId(v)));
                    take
                };
                it.head.skip(take);
            }
        } else {
            while out.len() < BATCH_ROWS {
                match it.next() {
                    Some(f) => out.push(f.triple),
                    None => break,
                }
            }
        }
        !out.is_empty()
    }
}

/// Streaming time-travel cursor: matching facts valid at a given
/// [`TimePoint`] (timeless facts always qualify). Returned by
/// [`KbRead::matching_at_iter`].
#[derive(Debug, Clone)]
pub struct MatchingAtIter<'a> {
    pub(crate) inner: MatchIter<'a>,
    pub(crate) point: TimePoint,
}

impl<'a> Iterator for MatchingAtIter<'a> {
    type Item = &'a Fact;

    fn next(&mut self) -> Option<&'a Fact> {
        let point = self.point;
        self.inner.by_ref().find(|f| f.span.is_none_or(|sp| sp.contains(&point)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, self.inner.size_hint().1)
    }
}

/// Streaming cursor over the live facts of a view in fact-table
/// (insertion) order — base segment first, then each delta in stack
/// order. Returned by [`KbRead::facts`]; this is the cheap path for
/// whole-KB aggregation (`stats`, `predicate_histogram`) that needs no
/// particular order.
///
/// Retracted facts are skipped, and a fact whose triple reappears in a
/// *newer* overlay segment is skipped too — the newer segment re-yields
/// its merged (or tombstoned) version, so each triple surfaces exactly
/// once.
#[derive(Debug, Clone)]
pub struct LiveFactsIter<'a> {
    cur: std::slice::Iter<'a, Fact>,
    /// Segments stacked above `cur`, oldest → newest: each shadows the
    /// current slice and then streams its own facts in turn.
    overlay: &'a [Arc<DeltaSegment>],
    /// Later groups, streamed after the current one drains. Each group
    /// is an independent shadowing scope: groups hold disjoint triple
    /// sets, so a group's facts can never be shadowed by another
    /// group's overlay.
    groups: Groups<'a>,
}

impl<'a> LiveFactsIter<'a> {
    pub(crate) fn new(groups: Groups<'a>) -> Self {
        Self { cur: [].iter(), overlay: &[], groups }
    }
}

impl<'a> Iterator for LiveFactsIter<'a> {
    type Item = &'a Fact;

    fn next(&mut self) -> Option<&'a Fact> {
        loop {
            for f in self.cur.by_ref() {
                if f.is_retracted() {
                    continue;
                }
                if self.overlay.iter().any(|d| d.fact_local(&f.triple).is_some()) {
                    continue;
                }
                return Some(f);
            }
            if let Some((next_seg, rest)) = self.overlay.split_first() {
                self.cur = next_seg.facts.iter();
                self.overlay = rest;
                continue;
            }
            let group = self.groups.next()?;
            self.cur = group.core.facts.iter();
            self.overlay = group.deltas;
        }
    }
}

/// An immutable, query-optimized view of a knowledge base.
///
/// Produced by [`KbBuilder::freeze`](crate::KbBuilder::freeze) (moves
/// the builder's data, sorts the permutation arrays once) or
/// [`KbBuilder::snapshot`](crate::KbBuilder::snapshot) (clones). A
/// snapshot is `Send + Sync` and cheap to share:
/// [`into_shared`](Self::into_shared) wraps it in an [`Arc`] so
/// read-heavy consumers (NED, analytics, serving) can query it from
/// many threads with zero coordination.
///
/// All queries go through the [`KbRead`] trait.
#[derive(Debug, Clone)]
pub struct KbSnapshot {
    base: BaseState,
    pub(crate) indexes: FrozenIndexes,
}

/// The non-index regions of a snapshot, fully decoded: the fact table
/// with its dictionary/source universe plus the ontology-level stores.
#[derive(Debug, Clone)]
pub(crate) struct EagerBase {
    pub(crate) core: KbCore,
    pub(crate) taxonomy: Taxonomy,
    pub(crate) sameas: SameAsStore,
    pub(crate) labels: LabelStore,
}

/// A snapshot's base regions before they have been decoded: a `pread`
/// source plus the parsed region table. The first access that needs the
/// fact table or dictionary faults everything in at once (base regions
/// are interdependent — fact ids index the dictionary), caching either
/// the decoded [`EagerBase`] or the typed corruption error.
#[derive(Debug)]
pub(crate) struct LazyBase {
    source: Arc<SegmentSource<'static>>,
    entries: Vec<RegionEntry>,
    cell: OnceLock<Result<Box<EagerBase>, StoreError>>,
    /// `(term_count, source_count)` as read at open from the regions'
    /// count prefixes — eight bytes that keep delta stacking checks from
    /// faulting the whole core. Not CRC-verified until the regions fault
    /// (or [`KbSnapshot::verify_counts`] runs).
    counts: (usize, usize),
}

impl LazyBase {
    pub(crate) fn new(
        source: Arc<SegmentSource<'static>>,
        entries: Vec<RegionEntry>,
        counts: (usize, usize),
    ) -> Self {
        Self { source, entries, cell: OnceLock::new(), counts }
    }

    fn fault(&self) -> Result<&EagerBase, StoreError> {
        self.cell
            .get_or_init(|| {
                crate::segment_io::decode_base(&self.source, &self.entries).map(Box::new)
            })
            .as_ref()
            .map(|b| &**b)
            .map_err(Clone::clone)
    }
}

#[derive(Debug, Clone)]
enum BaseState {
    Eager(Box<EagerBase>),
    Lazy(Arc<LazyBase>),
}

impl KbSnapshot {
    pub(crate) fn from_parts(
        core: KbCore,
        taxonomy: Taxonomy,
        sameas: SameAsStore,
        labels: LabelStore,
        indexes: FrozenIndexes,
    ) -> Self {
        let obs = kb_obs::global();
        obs.gauge("store.snapshot.facts").set(core.live as i64);
        obs.gauge("store.snapshot.terms").set(core.dict.len() as i64);
        let st = indexes.stats();
        obs.gauge("store.index_bytes").set(st.compressed_bytes as i64);
        obs.gauge("store.frames.compressed_bytes").set(st.compressed_bytes as i64);
        obs.gauge("store.frames.raw_bytes").set(st.raw_bytes as i64);
        // Where the frozen KB's resident bytes sit, from lengths and
        // capacities.
        let fact_bytes = core.facts.capacity() * std::mem::size_of::<Fact>();
        obs.gauge("store.bytes.facts").set(fact_bytes as i64);
        obs.gauge("store.bytes.by_triple").set(core.by_triple.heap_bytes() as i64);
        obs.gauge("store.bytes.dict").set(core.dict.heap_bytes() as i64);
        obs.gauge("store.bytes.frames").set(st.compressed_bytes as i64);
        Self {
            base: BaseState::Eager(Box::new(EagerBase { core, taxonomy, sameas, labels })),
            indexes,
        }
    }

    /// A lazily opened snapshot: no region beyond the header has been
    /// read, decoded, or checksummed yet. Gauges that need decoded data
    /// are deliberately not touched — open cost must stay independent
    /// of KB size.
    pub(crate) fn from_lazy(base: Arc<LazyBase>, indexes: FrozenIndexes) -> Self {
        Self { base: BaseState::Lazy(base), indexes }
    }

    /// The decoded base regions, faulting them in on a lazy snapshot.
    /// Corruption is a typed error here; use [`prefault`](Self::prefault)
    /// at open time to avoid the panicking accessors.
    pub(crate) fn try_base(&self) -> Result<&EagerBase, StoreError> {
        match &self.base {
            BaseState::Eager(b) => Ok(b),
            BaseState::Lazy(l) => l.fault(),
        }
    }

    fn base_ref(&self) -> &EagerBase {
        self.try_base().unwrap_or_else(|e| {
            panic!(
                "lazily opened segment's base regions failed to load: {e}; \
                 call prefault() after open to surface this as a typed error"
            )
        })
    }

    pub(crate) fn core(&self) -> &KbCore {
        &self.base_ref().core
    }

    /// Wraps the snapshot in an [`Arc`] for sharing across threads.
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// The term dictionary (a snapshot holds exactly one; segmented
    /// views don't, which is why [`KbRead`] exposes term access as
    /// methods instead).
    pub fn dictionary(&self) -> &Dictionary {
        &self.core().dict
    }

    /// All registered sources in id order.
    pub fn sources(&self) -> impl Iterator<Item = (SourceId, &str)> {
        self.core().sources.iter().map(|(id, s)| (SourceId(id.0), s))
    }

    /// Number of registered provenance sources. Cheap on a lazy
    /// snapshot (count prefix read at open, no core fault).
    pub(crate) fn source_count(&self) -> usize {
        match &self.base {
            BaseState::Eager(b) => b.core.sources.len(),
            BaseState::Lazy(l) => l.counts.1,
        }
    }

    /// Verifies what [`term_count`](KbRead::term_count) and
    /// [`source_count`](Self::source_count) answer from on a lazily
    /// opened snapshot: the dictionary and sources regions are
    /// checksummed (not decoded). Recovery calls this before it blames a
    /// delta for not stacking on those counts; a resident snapshot has
    /// nothing left to verify.
    pub(crate) fn verify_counts(&self) -> Result<(), StoreError> {
        use crate::error::SegmentRegion::{Dictionary, Sources};
        if let BaseState::Lazy(l) = &self.base {
            for region in [Dictionary, Sources] {
                crate::segment_io::fetch_region(&l.source, &l.entries, region)?;
            }
        }
        Ok(())
    }

    /// Size and compression accounting for the permutation indexes.
    pub fn index_stats(&self) -> IndexStats {
        self.indexes.stats()
    }
}

/// One run, no deltas.
impl KbRead for KbSnapshot {
    #[inline]
    fn groups(&self) -> Groups<'_> {
        Groups::one(Group::new(self.core(), &self.indexes, &[], &EMPTY))
    }

    /// Cheap on a lazy snapshot: served from the dictionary region's
    /// count prefix, so delta-stacking checks at open never fault the
    /// core.
    fn term_count(&self) -> usize {
        match &self.base {
            BaseState::Eager(b) => b.core.dict.len(),
            BaseState::Lazy(l) => l.counts.0,
        }
    }

    fn taxonomy(&self) -> &Taxonomy {
        &self.base_ref().taxonomy
    }

    fn sameas(&self) -> &SameAsStore {
        &self.base_ref().sameas
    }

    fn labels(&self) -> &LabelStore {
        &self.base_ref().labels
    }

    fn len(&self) -> usize {
        self.core().live
    }

    /// Faults and verifies every lazily loaded region — base regions
    /// decode fully, the frames region is CRC-checked and its layout
    /// walked. After `Ok(())`, queries on this snapshot cannot hit
    /// cold-corruption panics (only live file rot can).
    fn prefault(&self) -> Result<(), StoreError> {
        self.try_base()?;
        self.indexes.prefault()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::KbReadBatch;
    use crate::KbBuilder;

    fn snap() -> KbSnapshot {
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "founded", "Apple_Inc");
        b.assert_str("Steve_Wozniak", "founded", "Apple_Inc");
        b.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
        b.assert_str("San_Francisco", "locatedIn", "United_States");
        b.freeze()
    }

    #[test]
    fn every_shape_scans_one_contiguous_range() {
        let s = snap();
        let jobs = s.term("Steve_Jobs").unwrap();
        let founded = s.term("founded").unwrap();
        let apple = s.term("Apple_Inc").unwrap();
        assert_eq!(s.matching_iter(&TriplePattern::with_s(jobs)).count(), 2);
        assert_eq!(s.matching_iter(&TriplePattern::with_p(founded)).count(), 2);
        assert_eq!(s.matching_iter(&TriplePattern::with_o(apple)).count(), 2);
        assert_eq!(s.matching_iter(&TriplePattern::with_sp(jobs, founded)).count(), 1);
        assert_eq!(s.matching_iter(&TriplePattern::with_po(founded, apple)).count(), 2);
        assert_eq!(s.matching_iter(&TriplePattern::with_so(jobs, apple)).count(), 1);
        assert_eq!(s.matching_iter(&TriplePattern::any()).count(), 4);
    }

    #[test]
    fn exact_count_is_constant_time_for_prefix_shapes() {
        let s = snap();
        let founded = s.term("founded").unwrap();
        let it = s.matching_iter(&TriplePattern::with_p(founded));
        assert_eq!(it.size_hint(), (2, Some(2)));
        assert_eq!(it.exact_count(), 2);
        // s?o post-filters, so its lower bound is zero.
        let jobs = s.term("Steve_Jobs").unwrap();
        let apple = s.term("Apple_Inc").unwrap();
        let it = s.matching_iter(&TriplePattern::with_so(jobs, apple));
        assert_eq!(it.size_hint().0, 0);
        assert_eq!(it.exact_count(), 1);
    }

    #[test]
    fn retracted_facts_never_enter_the_indexes() {
        let mut b = KbBuilder::new();
        b.assert_str("a", "r", "b");
        b.assert_str("c", "r", "d");
        let t = Triple::new(b.term("a").unwrap(), b.term("r").unwrap(), b.term("b").unwrap());
        b.retract(t);
        let s = b.freeze();
        assert_eq!(s.len(), 1);
        assert_eq!(s.matching_iter(&TriplePattern::any()).count(), 1);
        assert!(!s.contains(&t));
        // The retracted fact is still addressable by id (provenance).
        assert!(s.fact(FactId(0)).unwrap().is_retracted());
    }

    #[test]
    fn snapshot_is_send_sync_and_arc_shareable() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<KbSnapshot>();
        let shared = snap().into_shared();
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || s.matching_iter(&TriplePattern::any()).count())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 4);
        }
    }

    /// A KB large enough to span many compression frames, with skew so
    /// some buckets are huge and some tiny.
    fn big_snap() -> KbSnapshot {
        let mut b = KbBuilder::new();
        // (i % 700, i % 5, (i / 5) % 900) is injective below
        // lcm(700, 5 · 900) = 31_500, so all 20_000 facts are distinct.
        for i in 0u32..20_000 {
            b.assert_str(
                &format!("e{}", i % 700),
                &format!("r{}", i % 5),
                &format!("e{}", (i / 5) % 900),
            );
        }
        let s = b.freeze();
        assert_eq!(s.len(), 20_000);
        s
    }

    #[test]
    fn batches_agree_with_tuple_iteration_on_every_shape() {
        let s = big_snap();
        // Anchor the bound shapes on a real triple so every pattern has
        // at least one match.
        let t = s.triples_iter(&TriplePattern::any()).nth(37).unwrap();
        let patterns = [
            TriplePattern::any(),
            TriplePattern::with_s(t.s),
            TriplePattern::with_p(t.p),
            TriplePattern::with_o(t.o),
            TriplePattern::with_sp(t.s, t.p),
            TriplePattern::with_po(t.p, t.o),
            TriplePattern::with_so(t.s, t.o),
            TriplePattern::exact(t),
        ];
        for pat in &patterns {
            assert!(s.triples_iter(pat).next().is_some(), "anchor left {pat:?} empty");
            let tuple: Vec<Triple> = s.triples_iter(pat).collect();
            let mut batch = Vec::new();
            let mut mb = s.matching_batches(pat);
            let mut buf = TripleBatch::new();
            while mb.next_batch(&mut buf) {
                assert!(buf.len() <= BATCH_ROWS);
                for i in 0..buf.len() {
                    batch.push(buf.row(i));
                }
            }
            assert_eq!(batch, tuple, "pattern {pat:?}");
        }
    }

    #[test]
    fn index_stats_show_real_compression() {
        let s = big_snap();
        let st = s.index_stats();
        assert_eq!(st.entries, 3 * 20_000);
        assert!(st.frames > 3, "multi-frame columns expected");
        assert!(
            st.saved_ratio() >= 0.30,
            "expected ≥30% savings, got {:.1}% ({} of {} bytes)",
            st.saved_ratio() * 100.0,
            st.compressed_bytes,
            st.raw_bytes
        );
    }
}
