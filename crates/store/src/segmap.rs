//! Beyond-RAM segment access: pread-backed lazy column loading under a
//! byte budget.
//!
//! A base segment on disk is a header plus checksummed regions; the
//! frames region alone holds fifteen compressed columns (three
//! permutations × four columns, plus three bucket arrays) and dominates
//! the file. Eager open decodes all of it, so open cost — and resident
//! memory — grows linearly with KB size. The types here invert that:
//!
//! * [`SegmentSource`] — the bytes of one segment image, read by
//!   position: a `pread` handle to the segment file, or a borrowed
//!   in-memory image (a WAL payload). No mmap: every byte that enters
//!   memory does so through an explicit, checksummed read, and I/O
//!   errors surface as [`StoreError::Io`] instead of `SIGBUS`.
//! * `FrameRegion` — the frames region as a lazily verified byte
//!   range. The first touch streams the region once to check its CRC
//!   and walks the column layout (O(1) memory). The layout walk, the
//!   descriptor read and the frame load (`walk_layout`, `read_metas`,
//!   `load_frames`) are the only parser of the frames region. A whole
//!   column is one run of them (`load_col`): the eager reader loads the
//!   fifteen columns straight from the file, checksumming the region as
//!   it goes, and a write of a paged column loads it over its verified
//!   region.
//! * `PagedCol` — one lazily materialized column. The unit that is
//!   faulted, charged, given a second chance and spilled is a **page**:
//!   a run of `PAGE_FRAMES` whole frames, read with one positioned read
//!   and built by [`ColFrames::from_raw`] over its rebased descriptors,
//!   so a page passes every structural check a column does. What stays
//!   resident per touched column is its directory: row count, frame
//!   descriptors (12 B a frame, validated once) and one slot per page.
//! * `PageCursor` — a scan's handle on one column: it holds the page it
//!   is reading, so consecutive rows cost no lock and an in-flight page
//!   outlives its own eviction.
//! * [`MemoryBudget`] — a byte budget with clock (second-chance)
//!   eviction over the resident pages. Eviction happens *before* a
//!   fault is charged, so `resident_bytes` never exceeds the limit,
//!   and it never writes: pages are clean, file-backed data, so
//!   spilling is just dropping the decoded copy.
//!
//! The budget is a floor, not a guarantee of progress starvation: the
//! directories of the touched columns are not evictable, and a page
//! that does not fit beside them evicts every other page and then loads
//! anyway — queries always complete, at the cost of one page over the
//! limit.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fs::File;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::error::{corrupt, SegmentRegion, StoreError};
use crate::frames::{payload_buf, ColFrames, FrameMeta, FRAME_ROWS};
use crate::segment_io::{Crc32, FRAME_META_LEN};

/// Columns in the frames region, in serialization order: SPO, POS, OSP
/// permutations (k0, k1, k2, fid each), then the three bucket arrays.
pub(crate) const FRAME_COLS: usize = 15;

/// Chunk size for the streaming CRC pass over the frames region.
const VERIFY_CHUNK: usize = 1 << 20;

// ---------------------------------------------------------------------
// SegmentSource
// ---------------------------------------------------------------------

/// The bytes of one segment image, read by position: a segment file
/// (`pread`-style, no shared seek position, so concurrent faults from
/// different columns never race on a file offset) or an image already in
/// memory. Every reader of the format goes through this one type, so a
/// WAL payload and a sealed file are decoded by the same code.
#[derive(Debug)]
pub(crate) struct SegmentSource<'a> {
    backing: Backing<'a>,
    path: PathBuf,
    len: u64,
}

#[derive(Debug)]
enum Backing<'a> {
    File(File),
    Image(&'a [u8]),
}

impl<'a> SegmentSource<'a> {
    /// Opens `path` read-only and records its length.
    pub(crate) fn open(path: &Path) -> Result<SegmentSource<'static>, StoreError> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(SegmentSource { backing: Backing::File(file), path: path.to_path_buf(), len })
    }

    /// A source over an image already in memory.
    pub(crate) fn image(bytes: &'a [u8]) -> Self {
        Self { backing: Backing::Image(bytes), path: PathBuf::new(), len: bytes.len() as u64 }
    }

    /// Image length in bytes.
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// The file this source reads (empty for an in-memory image).
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Reads exactly `buf.len()` bytes at `offset`.
    pub(crate) fn read_exact_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        match &self.backing {
            Backing::File(file) => read_file_at(file, offset, buf),
            Backing::Image(bytes) => {
                let src = usize::try_from(offset)
                    .ok()
                    .and_then(|at| bytes.get(at..at.checked_add(buf.len())?))
                    .ok_or_else(|| StoreError::Io("read past the end of the image".into()))?;
                buf.copy_from_slice(src);
                Ok(())
            }
        }
    }

    /// The byte range `[start, end)`: borrowed from an in-memory image,
    /// read into a fresh buffer from a file.
    pub(crate) fn read_range(&self, range: Range<usize>) -> Result<Cow<'_, [u8]>, StoreError> {
        match &self.backing {
            Backing::File(file) => {
                let mut buf = vec![0u8; range.end.saturating_sub(range.start)];
                read_file_at(file, range.start as u64, &mut buf)?;
                Ok(Cow::Owned(buf))
            }
            Backing::Image(bytes) => bytes
                .get(range)
                .map(Cow::Borrowed)
                .ok_or_else(|| StoreError::Io("read past the end of the image".into())),
        }
    }
}

#[cfg(unix)]
fn read_file_at(file: &File, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)?;
    Ok(())
}

#[cfg(not(unix))]
fn read_file_at(file: &File, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
    // Portable fallback: clone the handle and seek it, leaving the
    // original handle's position untouched.
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)?;
    Ok(())
}

// ---------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------

/// A resident page as the eviction clock names it: its column and its
/// index there. Weak, so a closed segment's pages drop out of the clock
/// when the hand meets them.
type PageRef = (Weak<PagedCol>, usize);

struct BudgetInner {
    /// Resident-byte ceiling; `usize::MAX` means unbounded.
    limit: usize,
    resident: AtomicUsize,
    faults: AtomicUsize,
    fault_bytes: AtomicUsize,
    spills: AtomicUsize,
    /// The resident pages in clock order: the hand is the front, a
    /// fault enters at the back. Only what can be evicted is in here, so
    /// a sweep never walks cold slots. Stays empty when unbounded.
    clock: Mutex<VecDeque<PageRef>>,
    // The kb-obs handles, looked up once instead of once a fault.
    obs_faults: Arc<kb_obs::Counter>,
    obs_fault_bytes: Arc<kb_obs::Counter>,
    obs_spills: Arc<kb_obs::Counter>,
    obs_resident: Arc<kb_obs::Gauge>,
}

/// A shared byte budget for lazily loaded columns. Cloning shares the
/// budget; every [`SegmentStore`](crate::SegmentStore) owns one and
/// threads it through each lazily opened segment.
#[derive(Clone)]
pub struct MemoryBudget {
    inner: Arc<BudgetInner>,
}

impl std::fmt::Debug for MemoryBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryBudget")
            .field("limit", &self.inner.limit)
            .field("resident", &self.resident_bytes())
            .finish()
    }
}

impl MemoryBudget {
    /// A budget capped at `limit` bytes of resident column data.
    pub fn bounded(limit: usize) -> Self {
        let obs = kb_obs::global();
        Self {
            inner: Arc::new(BudgetInner {
                limit,
                resident: AtomicUsize::new(0),
                faults: AtomicUsize::new(0),
                fault_bytes: AtomicUsize::new(0),
                spills: AtomicUsize::new(0),
                clock: Mutex::new(VecDeque::new()),
                obs_faults: obs.counter("store.page_faults"),
                obs_fault_bytes: obs.counter("store.fault_bytes"),
                obs_spills: obs.counter("store.spills"),
                obs_resident: obs.gauge("store.resident_bytes"),
            }),
        }
    }

    /// A budget that never evicts (the eager-equivalent default).
    pub fn unbounded() -> Self {
        Self::bounded(usize::MAX)
    }

    /// The configured ceiling, or `None` when unbounded.
    pub fn limit(&self) -> Option<usize> {
        (self.inner.limit != usize::MAX).then_some(self.inner.limit)
    }

    /// Bytes decoded from frames regions that are currently resident:
    /// pages, and the directories of the columns touched so far.
    pub fn resident_bytes(&self) -> usize {
        self.inner.resident.load(Ordering::Relaxed)
    }

    /// Faults: positioned reads that brought a page in (a first touch
    /// or a re-load after a spill) or, once per touched column, its
    /// directory.
    pub fn page_faults(&self) -> usize {
        self.inner.faults.load(Ordering::Relaxed)
    }

    /// Bytes read from segment files by faults (page payloads and
    /// column directories; the region's one CRC pass is not a fault).
    pub fn fault_bytes(&self) -> usize {
        self.inner.fault_bytes.load(Ordering::Relaxed)
    }

    /// Pages dropped back to disk by eviction.
    pub fn spills(&self) -> usize {
        self.inner.spills.load(Ordering::Relaxed)
    }

    /// Charges `bytes` for something freshly decoded out of `read`
    /// bytes of the file — a page, which enters the clock, or a column
    /// directory (`page: None`), which stays until its column is
    /// dropped — evicting cold pages first so the gauge stays at or
    /// under the limit. Serialized under the clock lock so concurrent
    /// faults cannot jointly overshoot.
    fn charge(&self, bytes: usize, read: usize, page: Option<PageRef>) {
        let inner = &*self.inner;
        let mut clock = inner.clock.lock().expect("budget clock poisoned");
        if inner.limit != usize::MAX {
            self.evict_locked(&mut clock, bytes);
            clock.extend(page);
        }
        let resident = inner.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
        inner.faults.fetch_add(1, Ordering::Relaxed);
        inner.fault_bytes.fetch_add(read, Ordering::Relaxed);
        inner.obs_faults.inc();
        inner.obs_fault_bytes.add(read as u64);
        inner.obs_resident.set(resident as i64);
    }

    /// Returns `bytes` to the budget (a column dropped with them).
    fn release(&self, bytes: usize) {
        let resident = self.inner.resident.fetch_sub(bytes, Ordering::Relaxed) - bytes;
        self.inner.obs_resident.set(resident as i64);
    }

    /// Clock (second-chance) sweep: a page at the hand with its `hot`
    /// bit set has it cleared and goes to the back; a cold one is
    /// spilled; until `incoming` more bytes fit under the limit or the
    /// hand has been twice around. Victims are `try_lock`ed, so a page
    /// another thread is looking at is passed over, never waited for
    /// (the page being faulted right now is not in the clock yet). The
    /// work is the pages spilled plus the pins since the last sweep,
    /// whatever the number of cold slots.
    fn evict_locked(&self, clock: &mut VecDeque<PageRef>, incoming: usize) {
        let inner = &*self.inner;
        for _ in 0..2 * clock.len() {
            if inner.resident.load(Ordering::Relaxed).saturating_add(incoming) <= inner.limit {
                return;
            }
            let Some((col, page)) = clock.pop_front() else { return };
            // A dropped column released its pages' bytes itself.
            let Some(owner) = col.upgrade() else { continue };
            let Some(slot) = owner.slot(page) else { continue };
            if slot.hot.swap(false, Ordering::Relaxed) {
                clock.push_back((col, page)); // second chance
                continue;
            }
            let Ok(mut data) = slot.data.try_lock() else {
                clock.push_back((col, page));
                continue;
            };
            if let Some(frames) = data.take() {
                inner.resident.fetch_sub(frames.compressed_bytes(), Ordering::Relaxed);
                inner.spills.fetch_add(1, Ordering::Relaxed);
                inner.obs_spills.inc();
            }
        }
    }
}

// ---------------------------------------------------------------------
// FrameRegion
// ---------------------------------------------------------------------

/// Where one column's bytes live inside the frames region (offsets into
/// the source), captured by the layout walk.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ColLayout {
    /// Row count of the column.
    len: usize,
    /// Number of frame descriptors.
    n_frames: usize,
    /// Offset of the first [`FrameMeta`].
    metas_at: u64,
    /// Offset of the payload bytes.
    payload_at: u64,
    /// Payload length in bytes.
    payload_len: usize,
}

/// Walks the serialized column layout of the frames region at `range`:
/// per column a `len u32 · n_frames u32` pair, `n_frames` metas, then
/// `payload_len u32` and the payload. Only the fixed-size prefixes are
/// read; metas and payloads are skipped by offset arithmetic,
/// bounds-checked against the region end.
pub(crate) fn walk_layout(
    source: &SegmentSource<'_>,
    range: Range<usize>,
) -> Result<[ColLayout; FRAME_COLS], StoreError> {
    let end = range.end as u64;
    let mut at = range.start as u64;
    let mut cols = [ColLayout::default(); FRAME_COLS];
    for (i, col) in cols.iter_mut().enumerate() {
        let mut head = [0u8; 8];
        if at + 8 > end {
            return Err(corrupt(SegmentRegion::Frames, format!("column {i} header truncated")));
        }
        source.read_exact_at(at, &mut head)?;
        let len = u32::from_le_bytes(head[0..4].try_into().unwrap()) as usize;
        let n_frames = u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize;
        let metas_at = at + 8;
        let metas_bytes =
            (n_frames as u64).checked_mul(FRAME_META_LEN as u64).ok_or_else(|| {
                corrupt(SegmentRegion::Frames, format!("column {i} meta count overflows"))
            })?;
        let payload_len_at =
            metas_at.checked_add(metas_bytes).filter(|&p| p + 4 <= end).ok_or_else(|| {
                corrupt(SegmentRegion::Frames, format!("column {i} metas run past the region"))
            })?;
        let mut plen = [0u8; 4];
        source.read_exact_at(payload_len_at, &mut plen)?;
        let payload_len = u32::from_le_bytes(plen) as usize;
        let payload_at = payload_len_at + 4;
        if payload_at + payload_len as u64 > end {
            return Err(corrupt(
                SegmentRegion::Frames,
                format!("column {i} payload runs past the region"),
            ));
        }
        *col = ColLayout { len, n_frames, metas_at, payload_at, payload_len };
        at = payload_at + payload_len as u64;
    }
    if at != end {
        return Err(corrupt(SegmentRegion::Frames, "trailing bytes after the last column"));
    }
    Ok(cols)
}

/// Reads column `i`'s frame descriptors (one positioned read) and
/// validates them against its row count and payload length.
fn read_metas(
    source: &SegmentSource<'_>,
    layout: &[ColLayout; FRAME_COLS],
    i: usize,
) -> Result<Vec<FrameMeta>, StoreError> {
    let l = &layout[i];
    let mut meta_bytes = vec![0u8; l.n_frames * FRAME_META_LEN];
    source.read_exact_at(l.metas_at, &mut meta_bytes)?;
    parse_metas(&meta_bytes, l, i)
}

/// Parses column `i`'s serialized frame descriptors and validates them
/// against its row count and payload length.
fn parse_metas(bytes: &[u8], l: &ColLayout, i: usize) -> Result<Vec<FrameMeta>, StoreError> {
    let metas: Vec<FrameMeta> = bytes
        .chunks_exact(FRAME_META_LEN)
        .map(|m| FrameMeta {
            base: u32::from_le_bytes(m[0..4].try_into().unwrap()),
            enc: m[4],
            width: m[5],
            end: u32::from_le_bytes(m[6..10].try_into().unwrap()),
        })
        .collect();
    ColFrames::check_metas(l.len, &metas, l.payload_len)
        .map_err(|e| corrupt(SegmentRegion::Frames, format!("column {i}: {e}")))?;
    Ok(metas)
}

/// Reads and decodes the run `frames` of column `i` (one positioned
/// read of exactly those frames' payload) as a column of its own, its
/// descriptors rebased to the run. `metas` are the column's validated
/// descriptors; [`ColFrames::from_raw`] runs over the run whatever its
/// length, so a page and a whole column pass the same checks.
fn load_frames(
    source: &SegmentSource<'_>,
    layout: &[ColLayout; FRAME_COLS],
    i: usize,
    metas: &[FrameMeta],
    frames: Range<usize>,
) -> Result<ColFrames, StoreError> {
    let l = &layout[i];
    let end_of = |f: usize| f.checked_sub(1).map_or(0, |last| metas[last].end);
    let (start, end) = (end_of(frames.start), end_of(frames.end));
    let rows = l.len.min(frames.end * FRAME_ROWS) - frames.start * FRAME_ROWS;
    let mut payload = payload_buf((end - start) as usize);
    source.read_exact_at(l.payload_at + u64::from(start), &mut payload)?;
    let rebased = metas[frames].iter().map(|m| FrameMeta { end: m.end - start, ..*m }).collect();
    ColFrames::from_raw(rows, rebased, payload)
        .map_err(|e| corrupt(SegmentRegion::Frames, format!("column {i}: {e}")))
}

/// Reads and decodes the whole of column `i` of a walked layout (two
/// positioned reads: counts and descriptors, then payload), validating
/// its structural invariants, and advances `crc` over the column's
/// stretch of the region in file order — so a reader that loads the
/// fifteen columns in turn has checksummed the whole region without
/// holding more than one column's bytes beside the columns it keeps.
pub(crate) fn load_col(
    source: &SegmentSource<'_>,
    layout: &[ColLayout; FRAME_COLS],
    i: usize,
    crc: &mut Crc32,
) -> Result<ColFrames, StoreError> {
    let l = &layout[i];
    // Row and frame counts, descriptors and payload length, as they lie
    // in the region between the previous column's payload and this one's.
    let head_at = l.metas_at - 8;
    let mut head = vec![0u8; (l.payload_at - head_at) as usize];
    source.read_exact_at(head_at, &mut head)?;
    crc.update(&head);
    let metas = parse_metas(&head[8..head.len() - 4], l, i)?;
    let col = load_frames(source, layout, i, &metas, 0..metas.len())?;
    crc.update(col.payload());
    Ok(col)
}

/// The frames region of one lazily opened segment: a checksummed byte
/// range whose fifteen columns are located (and the region CRC
/// verified) on first touch, then paged in independently on demand.
#[derive(Debug)]
pub(crate) struct FrameRegion {
    source: Arc<SegmentSource<'static>>,
    /// Byte range of the region within the file.
    range: Range<usize>,
    /// Expected CRC-32 of the whole region, from the header table.
    crc: u32,
    init: OnceLock<Result<[ColLayout; FRAME_COLS], StoreError>>,
}

impl FrameRegion {
    pub(crate) fn new(source: Arc<SegmentSource<'static>>, range: Range<usize>, crc: u32) -> Self {
        Self { source, range, crc, init: OnceLock::new() }
    }

    /// First touch: one streaming pass for the CRC, then a layout walk
    /// with small positioned reads. Both are O(1) in memory regardless
    /// of region size. The result (layout or the typed corruption
    /// error) is cached, so a damaged region fails every access the
    /// same way.
    fn layout(&self) -> Result<&[ColLayout; FRAME_COLS], StoreError> {
        self.init
            .get_or_init(|| {
                self.verify_crc()?;
                walk_layout(&self.source, self.range.clone())
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn verify_crc(&self) -> Result<(), StoreError> {
        let mut crc = Crc32::new();
        let mut buf = vec![0u8; VERIFY_CHUNK.min(self.range.len().max(1))];
        let mut at = self.range.start as u64;
        let mut left = self.range.len();
        while left > 0 {
            let take = left.min(buf.len());
            self.source.read_exact_at(at, &mut buf[..take])?;
            crc.update(&buf[..take]);
            at += take as u64;
            left -= take;
        }
        if crc.finish() != self.crc {
            return Err(corrupt(
                SegmentRegion::Frames,
                format!("checksum mismatch in {}", self.source.path().display()),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// PagedCol
// ---------------------------------------------------------------------

/// Frames per page. Measured on kbbench's `restart_paged` (400 k facts,
/// budget = half a 7.2 MB frames region, seed 11, 2 cores; scan-phase
/// M rows/s over four runs · faults a cycle · spills a cycle): 2 frames
/// 181–217 · 1 146 · 0, **4 frames 188–210 · 610 · 0.3**, 8 frames
/// 189–197 · 343 · 43. In ten alternating pairs 2 frames read the same
/// throughput as 4 (medians 201 and 203 M rows/s, ahead in 6 of 10) and
/// a slower first answer (`op_p50_us` +5 %, ahead in 4 of 10). When
/// scans still paged in fact ids they never read, 16 and 32 frames read
/// 79–104 and 73–78 M rows/s. Smaller pages pay a read, an allocation
/// and a clock step more often for the same bytes; larger ones drag
/// cold frames in beside a three-row probe, and the rows the scans keep
/// coming back to stop fitting under the budget. Four frames are 4 096
/// rows — 2 to 10 KB of payload at the widths the permutation columns
/// pack to.
const PAGE_FRAMES: usize = 4;
/// Rows per page (the last page of a column may be short).
const PAGE_ROWS: usize = PAGE_FRAMES * FRAME_ROWS;

/// One page's seat in its column: the decoded frames live behind an
/// `Arc`, so eviction can drop the slot's reference while a live
/// cursor keeps its own — a spill never invalidates an in-flight query.
#[derive(Debug, Default)]
struct PageSlot {
    /// Second-chance bit: set on every pin, cleared by the clock sweep.
    hot: AtomicBool,
    data: Mutex<Option<Arc<ColFrames>>>,
}

/// What stays resident of a touched column: its validated frame
/// descriptors (a page's payload range and encodings come from them)
/// and one slot per page. Charged to the budget, never evicted.
#[derive(Debug)]
struct ColDir {
    len: usize,
    metas: Vec<FrameMeta>,
    pages: Box<[PageSlot]>,
}

impl ColDir {
    fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.metas) + std::mem::size_of_val(&*self.pages)
    }
}

/// One budget-managed column of a lazily opened segment, paged in runs
/// of [`PAGE_FRAMES`] frames.
#[derive(Debug)]
pub(crate) struct PagedCol {
    region: Arc<FrameRegion>,
    col: usize,
    budget: MemoryBudget,
    /// This column as the eviction clock holds it.
    me: Weak<PagedCol>,
    /// Read and validated on first touch; a damaged directory fails
    /// every access the same way.
    dir: OnceLock<Result<ColDir, StoreError>>,
}

impl PagedCol {
    pub(crate) fn new(region: Arc<FrameRegion>, col: usize, budget: MemoryBudget) -> Arc<Self> {
        Arc::new_cyclic(|me| Self { region, col, budget, me: me.clone(), dir: OnceLock::new() })
    }

    /// The column's directory, read (one small positioned read) and
    /// validated on first touch. The region CRC has been verified by
    /// then, so an error here is a typed [`StoreError::Corrupt`].
    fn dir(&self) -> Result<&ColDir, StoreError> {
        self.dir
            .get_or_init(|| {
                let layout = self.region.layout()?;
                let metas = read_metas(&self.region.source, layout, self.col)?;
                let pages = (0..metas.len().div_ceil(PAGE_FRAMES)).map(|_| PageSlot::default());
                let dir = ColDir { len: layout[self.col].len, pages: pages.collect(), metas };
                self.budget.charge(dir.bytes(), dir.metas.len() * FRAME_META_LEN, None);
                Ok(dir)
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Verifies the region's CRC and layout (its first touch) and reads
    /// and validates the directory, so that what is left to fail at
    /// first touch is a page's payload.
    pub(crate) fn prefault(&self) -> Result<(), StoreError> {
        self.dir().map(|_| ())
    }

    /// Rows, frames and payload bytes of the column, from the region's
    /// layout: no directory or page is read.
    pub(crate) fn shape(&self) -> Result<(usize, usize, usize), StoreError> {
        let l = self.region.layout()?[self.col];
        Ok((l.len, l.n_frames, l.payload_len))
    }

    /// The whole column, read by [`load_col`] and charged to no budget:
    /// the caller holds it as long as it needs it. The region's CRC was
    /// verified with its layout, so the one `load_col` runs is dropped.
    pub(crate) fn load(&self) -> Result<ColFrames, StoreError> {
        let layout = self.region.layout()?;
        load_col(&self.region.source, layout, self.col, &mut Crc32::new())
    }

    /// The slot of `page`, if the directory is loaded and has one.
    fn slot(&self, page: usize) -> Option<&PageSlot> {
        self.dir.get()?.as_ref().ok()?.pages.get(page)
    }

    /// Returns the decoded page, faulting it in from disk on a miss:
    /// one positioned read of the page's payload, every structural
    /// check of [`ColFrames::from_raw`], then a charge to the budget.
    fn pin(&self, page: usize) -> Result<Arc<ColFrames>, StoreError> {
        let dir = self.dir()?;
        let slot = &dir.pages[page];
        slot.hot.store(true, Ordering::Relaxed);
        let mut data = slot.data.lock().expect("page slot poisoned");
        if let Some(frames) = data.as_ref() {
            return Ok(Arc::clone(frames));
        }
        let region = &self.region;
        let run = page * PAGE_FRAMES..dir.metas.len().min((page + 1) * PAGE_FRAMES);
        let frames =
            Arc::new(load_frames(&region.source, region.layout()?, self.col, &dir.metas, run)?);
        let read = frames.payload().len();
        self.budget.charge(frames.compressed_bytes(), read, Some((self.me.clone(), page)));
        *data = Some(Arc::clone(&frames));
        Ok(frames)
    }
}

impl Drop for PagedCol {
    fn drop(&mut self) {
        let Some(Ok(dir)) = self.dir.get_mut() else { return };
        let mut bytes = dir.bytes();
        for slot in dir.pages.iter_mut() {
            if let Some(frames) = slot.data.get_mut().ok().and_then(Option::take) {
                bytes += frames.compressed_bytes();
            }
        }
        self.budget.release(bytes);
    }
}

/// A scan's handle on one paged column. It holds the page it read
/// last, so consecutive rows of a page cost no lock, and what it holds
/// stays alive even if the budget spills the slot's copy mid-scan.
#[derive(Debug, Clone)]
pub(crate) struct PageCursor<'a> {
    col: &'a PagedCol,
    held: Option<(usize, Arc<ColFrames>)>,
}

impl<'a> PageCursor<'a> {
    pub(crate) fn new(col: &'a PagedCol) -> Self {
        Self { col, held: None }
    }

    /// The region was CRC-verified on its first touch, so a load that
    /// fails later means the file changed (or rotted) *under* a live
    /// snapshot, or `prefault()` was skipped on a damaged one — there
    /// is no corrupt-tolerant answer at this point, only refusal.
    fn refuse(e: StoreError) -> ! {
        panic!(
            "lazily opened segment failed while reading a verified column: {e}; \
             run prefault() after open to surface cold corruption as a typed error"
        )
    }

    /// Row count of the column (from its directory; no page is read).
    pub(crate) fn len(&self) -> usize {
        self.col.dir().unwrap_or_else(|e| Self::refuse(e)).len
    }

    /// The page holding `row` and the row it starts at, pinning it if
    /// it is not the one held.
    #[inline]
    fn page_of(&mut self, row: usize) -> (&ColFrames, usize) {
        let page = row / PAGE_ROWS;
        if !matches!(&self.held, Some((held, _)) if *held == page) {
            self.held = Some((page, self.col.pin(page).unwrap_or_else(|e| Self::refuse(e))));
        }
        let (_, frames) = self.held.as_ref().expect("pinned above");
        (frames, page * PAGE_ROWS)
    }

    /// [`ColFrames::get`] on the page holding row `i`.
    #[inline]
    pub(crate) fn get(&mut self, i: usize) -> u32 {
        let (frames, base) = self.page_of(i);
        frames.get(i - base)
    }

    /// [`ColFrames::decode_range`], page by page.
    pub(crate) fn decode_range(&mut self, mut from: usize, to: usize, out: &mut Vec<u32>) {
        while from < to {
            let (frames, base) = self.page_of(from);
            let stop = to.min(base + PAGE_ROWS);
            frames.decode_range(from - base, stop - base, out);
            from = stop;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment_io::snapshot_open_lazy;
    use crate::{KbBuilder, KbRead, KbSnapshot, TriplePattern};

    #[test]
    fn unbounded_budget_reports_no_limit() {
        let b = MemoryBudget::unbounded();
        assert_eq!(b.limit(), None);
        assert_eq!(b.resident_bytes(), 0);
        let b = MemoryBudget::bounded(4096);
        assert_eq!(b.limit(), Some(4096));
    }

    /// Twenty frames a column, skewed buckets, written to `name`.
    fn segment_file(name: &str) -> (KbSnapshot, PathBuf) {
        let mut b = KbBuilder::new();
        for i in 0u32..20_000 {
            b.assert_str(
                &format!("e{}", i % 700),
                &format!("r{}", i % 5),
                &format!("e{}", (i / 5) % 900),
            );
        }
        let snap = b.freeze();
        let path =
            std::env::temp_dir().join(format!("kbkit-segmap-{}-{name}.seg", std::process::id()));
        snap.write_segment(&path).unwrap();
        (snap, path)
    }

    fn patterns(snap: &KbSnapshot) -> Vec<TriplePattern> {
        let t = snap.triples_iter(&TriplePattern::any()).nth(12_345).unwrap();
        vec![
            TriplePattern::with_p(t.p),
            TriplePattern::with_s(t.s),
            TriplePattern::with_o(t.o),
            TriplePattern::with_po(t.p, t.o),
            TriplePattern::with_so(t.s, t.o),
            TriplePattern::any(),
            TriplePattern::exact(t),
        ]
    }

    fn clock_len(budget: &MemoryBudget) -> usize {
        budget.inner.clock.lock().unwrap().len()
    }

    /// What a sweep can visit is the resident pages, never the slots: a
    /// budget nothing fits in keeps one page in the clock however many
    /// slots the columns have, resident bytes are the touched columns'
    /// directories plus at most that one page after every call, and a
    /// closed segment gives everything back.
    #[test]
    fn a_starved_budget_keeps_the_directories_and_one_page() {
        let (snap, path) = segment_file("starved");
        let budget = MemoryBudget::bounded(1);
        let lazy = snapshot_open_lazy(&path, &budget).unwrap();
        lazy.prefault().unwrap();
        // Prefault leaves all fifteen directories and no page.
        let directories = budget.resident_bytes();
        assert_eq!((budget.page_faults(), clock_len(&budget)), (FRAME_COLS, 0));
        let slots = 12 * 20usize.div_ceil(PAGE_FRAMES);
        assert!(directories >= slots * std::mem::size_of::<PageSlot>());
        // No encoding takes more than four bytes a row.
        let a_page = 4 * PAGE_ROWS + 8 + PAGE_FRAMES * std::mem::size_of::<FrameMeta>();
        for pattern in patterns(&snap) {
            assert_eq!(lazy.matching_triples(&pattern), snap.matching_triples(&pattern));
            assert!(clock_len(&budget) <= 1, "{pattern:?}");
            let resident = budget.resident_bytes();
            assert!(resident <= directories + a_page, "{resident} B after {pattern:?}");
        }
        // Every page faulted was spilled again, but the one still held.
        let pages_faulted = budget.page_faults() - FRAME_COLS;
        assert!(pages_faulted >= 4 * 20usize.div_ceil(PAGE_FRAMES), "the SPO scan alone");
        assert_eq!(budget.spills() + clock_len(&budget), pages_faulted);
        assert!(budget.fault_bytes() > 0);
        drop(lazy);
        assert_eq!(budget.resident_bytes(), 0);
        std::fs::remove_file(path).ok();
    }

    /// Two readers paging the same columns under a budget that makes
    /// each evict what the other reads: every answer is the eager one.
    #[test]
    fn concurrent_readers_under_a_tight_budget_agree_with_the_resident_answers() {
        let (snap, path) = segment_file("readers");
        let budget = MemoryBudget::bounded(48 << 10);
        let lazy = snapshot_open_lazy(&path, &budget).unwrap();
        lazy.prefault().unwrap();
        let patterns = patterns(&snap);
        std::thread::scope(|s| {
            for reader in 0..2 {
                let (lazy, snap, patterns) = (&lazy, &snap, &patterns);
                s.spawn(move || {
                    for round in 0..6 {
                        let pattern = &patterns[(reader * 3 + round) % patterns.len()];
                        assert_eq!(lazy.matching_triples(pattern), snap.matching_triples(pattern));
                    }
                });
            }
        });
        assert!(budget.spills() > 0);
        assert!(budget.resident_bytes() <= 48 << 10);
        std::fs::remove_file(path).ok();
    }
}
