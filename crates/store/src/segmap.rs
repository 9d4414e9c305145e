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
//!   and walks the column layout (O(1) memory); afterwards each column
//!   is loadable independently with two `pread`s. The layout walk and
//!   the column load (`walk_layout`, `load_col`) are the only
//!   parser of the frames region: the eager reader runs them over the
//!   region it fetched.
//! * `ColSlot` — one lazily materialized column. `pin` returns a
//!   shared handle, faulting the bytes in on first use and charging
//!   them to the budget.
//! * [`MemoryBudget`] — a byte budget with clock (second-chance)
//!   eviction over every registered slot. Eviction happens *before* a
//!   fault is charged, so `resident_bytes` never exceeds the limit,
//!   and it never writes: columns are clean, file-backed data, so
//!   spilling is just dropping the decoded copy.
//!
//! The budget is a floor, not a guarantee of progress starvation: a
//! single column larger than the whole limit evicts everything else
//! and then loads anyway — queries always complete, at the cost of one
//! oversized resident column.

use std::borrow::Cow;
use std::fs::File;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::error::{SegmentRegion, StoreError};
use crate::frames::{ColFrames, FrameMeta};
use crate::segment_io::{Crc32, FRAME_META_LEN};

/// Columns in the frames region, in serialization order: SPO, POS, OSP
/// permutations (k0, k1, k2, fid each), then the three bucket arrays.
pub(crate) const FRAME_COLS: usize = 15;

/// Chunk size for the streaming CRC pass over the frames region.
const VERIFY_CHUNK: usize = 1 << 20;

fn corrupt(region: SegmentRegion, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt { region, detail: detail.into() }
}

// ---------------------------------------------------------------------
// SegmentSource
// ---------------------------------------------------------------------

/// The bytes of one segment image, read by position: a segment file
/// (`pread`-style, no shared seek position, so concurrent faults from
/// different columns never race on a file offset) or an image already in
/// memory. Every reader of the format goes through this one type, so a
/// WAL payload and a sealed file are decoded by the same code.
#[derive(Debug)]
pub struct SegmentSource<'a> {
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

struct SlotRegistry {
    slots: Vec<Weak<ColSlot>>,
    /// Clock hand for second-chance eviction.
    hand: usize,
}

struct BudgetInner {
    /// Resident-byte ceiling; `usize::MAX` means unbounded.
    limit: usize,
    resident: AtomicUsize,
    faults: AtomicUsize,
    spills: AtomicUsize,
    registry: Mutex<SlotRegistry>,
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
        Self {
            inner: Arc::new(BudgetInner {
                limit,
                resident: AtomicUsize::new(0),
                faults: AtomicUsize::new(0),
                spills: AtomicUsize::new(0),
                registry: Mutex::new(SlotRegistry { slots: Vec::new(), hand: 0 }),
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

    /// Bytes of decoded column data currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.inner.resident.load(Ordering::Relaxed)
    }

    /// Column faults (first touches and re-loads after a spill).
    pub fn page_faults(&self) -> usize {
        self.inner.faults.load(Ordering::Relaxed)
    }

    /// Columns dropped back to disk by eviction.
    pub fn spills(&self) -> usize {
        self.inner.spills.load(Ordering::Relaxed)
    }

    /// Makes a slot's column evictable. Called once per slot at lazy
    /// open; dead weak refs are pruned during eviction scans.
    fn register(&self, slot: &Arc<ColSlot>) {
        let mut reg = self.inner.registry.lock().expect("budget registry poisoned");
        reg.slots.push(Arc::downgrade(slot));
    }

    /// Charges `bytes` for a freshly decoded column, evicting cold
    /// resident columns first so the gauge stays at or under the limit.
    /// Serialized under the registry lock so concurrent faults cannot
    /// jointly overshoot.
    fn charge(&self, bytes: usize) {
        let mut reg = self.inner.registry.lock().expect("budget registry poisoned");
        if self.inner.limit != usize::MAX {
            self.evict_locked(&mut reg, bytes);
        }
        self.inner.resident.fetch_add(bytes, Ordering::Relaxed);
        self.inner.faults.fetch_add(1, Ordering::Relaxed);
        let obs = kb_obs::global();
        obs.counter("store.page_faults").inc();
        obs.gauge("store.resident_bytes").set(self.resident_bytes() as i64);
    }

    /// Returns `bytes` to the budget (slot dropped or evicted).
    fn release(&self, bytes: usize) {
        self.inner.resident.fetch_sub(bytes, Ordering::Relaxed);
        kb_obs::global().gauge("store.resident_bytes").set(self.resident_bytes() as i64);
    }

    /// Clock (second-chance) sweep: each resident slot gets its `hot`
    /// bit cleared on the first pass and is spilled on the second,
    /// until `incoming` more bytes fit under the limit. Victims are
    /// `try_lock`ed so the slot mid-fault on this very thread (which
    /// holds its own data lock) is skipped, never deadlocked on.
    fn evict_locked(&self, reg: &mut SlotRegistry, incoming: usize) {
        reg.slots.retain(|w| w.strong_count() > 0);
        let n = reg.slots.len();
        if n == 0 {
            return;
        }
        let spills = kb_obs::global().counter("store.spills");
        let mut scanned = 0;
        while self.inner.resident.load(Ordering::Relaxed).saturating_add(incoming)
            > self.inner.limit
            && scanned < 2 * n
        {
            let i = reg.hand % n;
            reg.hand = reg.hand.wrapping_add(1);
            scanned += 1;
            let Some(slot) = reg.slots[i].upgrade() else { continue };
            if slot.hot.swap(false, Ordering::Relaxed) {
                continue; // second chance
            }
            let Ok(mut data) = slot.data.try_lock() else { continue };
            if let Some(col) = data.take() {
                let bytes = col.compressed_bytes();
                drop(data);
                drop(col);
                self.inner.resident.fetch_sub(bytes, Ordering::Relaxed);
                self.inner.spills.fetch_add(1, Ordering::Relaxed);
                spills.inc();
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

/// Reads and decodes column `i` of a walked layout (two positioned
/// reads: metas, then payload), validating its structural invariants.
pub(crate) fn load_col(
    source: &SegmentSource<'_>,
    layout: &[ColLayout; FRAME_COLS],
    i: usize,
) -> Result<ColFrames, StoreError> {
    let l = &layout[i];
    let mut meta_bytes = vec![0u8; l.n_frames * FRAME_META_LEN];
    source.read_exact_at(l.metas_at, &mut meta_bytes)?;
    let metas: Vec<FrameMeta> = meta_bytes
        .chunks_exact(FRAME_META_LEN)
        .map(|m| FrameMeta {
            base: u32::from_le_bytes(m[0..4].try_into().unwrap()),
            enc: m[4],
            width: m[5],
            end: u32::from_le_bytes(m[6..10].try_into().unwrap()),
        })
        .collect();
    let mut payload = vec![0u8; l.payload_len];
    source.read_exact_at(l.payload_at, &mut payload)?;
    ColFrames::from_raw(l.len, metas, payload)
        .map_err(|e| corrupt(SegmentRegion::Frames, format!("column {i}: {e}")))
}

/// The frames region of one lazily opened segment: a checksummed byte
/// range whose fifteen columns are located (and the region CRC
/// verified) on first touch, then loaded independently on demand.
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

    /// Forces CRC verification and the layout walk, surfacing cold
    /// corruption as a typed error instead of a later panic.
    pub(crate) fn prefault(&self) -> Result<(), StoreError> {
        self.layout().map(|_| ())
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

    /// Row count of column `i` from the layout alone (no column load).
    pub(crate) fn col_len(&self, i: usize) -> Result<usize, StoreError> {
        Ok(self.layout()?[i].len)
    }

    /// Frame count of column `i` from the layout alone.
    pub(crate) fn col_frames(&self, i: usize) -> Result<usize, StoreError> {
        Ok(self.layout()?[i].n_frames)
    }

    /// Compressed footprint the column would occupy if resident
    /// (payload + pad + metas), from the layout alone.
    pub(crate) fn col_bytes(&self, i: usize) -> Result<usize, StoreError> {
        let l = self.layout()?[i];
        Ok(l.payload_len + 8 + l.n_frames * std::mem::size_of::<FrameMeta>())
    }
}

// ---------------------------------------------------------------------
// ColSlot
// ---------------------------------------------------------------------

/// One budget-managed column of a lazily opened segment. The decoded
/// [`ColFrames`] lives behind an `Arc` so eviction can drop the slot's
/// reference while live cursors keep theirs — a spill never invalidates
/// an in-flight query.
#[derive(Debug)]
pub(crate) struct ColSlot {
    region: Arc<FrameRegion>,
    col: usize,
    budget: MemoryBudget,
    /// Second-chance bit: set on every pin, cleared by the clock sweep.
    hot: AtomicBool,
    data: Mutex<Option<Arc<ColFrames>>>,
}

impl ColSlot {
    /// Creates the slot and registers it with the budget's eviction
    /// clock.
    pub(crate) fn new(region: Arc<FrameRegion>, col: usize, budget: MemoryBudget) -> Arc<Self> {
        let slot = Arc::new(Self {
            region,
            col,
            budget: budget.clone(),
            hot: AtomicBool::new(false),
            data: Mutex::new(None),
        });
        budget.register(&slot);
        slot
    }

    /// Returns the decoded column, faulting it in from disk on a miss.
    /// The region CRC has been verified by the time any bytes are
    /// trusted (first touch of the region verifies; `from_raw`
    /// re-validates structure), so an error here is a typed
    /// [`StoreError::Corrupt`], never undefined behavior.
    pub(crate) fn pin(&self) -> Result<Arc<ColFrames>, StoreError> {
        self.hot.store(true, Ordering::Relaxed);
        let mut data = self.data.lock().expect("column slot poisoned");
        if let Some(col) = data.as_ref() {
            return Ok(Arc::clone(col));
        }
        let region = &self.region;
        let col = Arc::new(load_col(&region.source, region.layout()?, self.col)?);
        self.budget.charge(col.compressed_bytes());
        *data = Some(Arc::clone(&col));
        Ok(col)
    }
}

impl Drop for ColSlot {
    fn drop(&mut self) {
        if let Ok(mut data) = self.data.lock() {
            if let Some(col) = data.take() {
                self.budget.release(col.compressed_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_budget_reports_no_limit() {
        let b = MemoryBudget::unbounded();
        assert_eq!(b.limit(), None);
        assert_eq!(b.resident_bytes(), 0);
        let b = MemoryBudget::bounded(4096);
        assert_eq!(b.limit(), Some(4096));
    }
}
