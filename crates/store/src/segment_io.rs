//! The on-disk segment format: versioned, checksummed binary images of
//! [`KbSnapshot`] base segments and [`DeltaSegment`] increments.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ preamble (16 B): magic "KBSG"/"KBDS" · version u32           │
//! │                  header_len u32 · header_crc u32             │
//! ├──────────────────────────────────────────────────────────────┤
//! │ header: region_count u32, then per region                    │
//! │         tag u8 · offset u64 · len u64 · crc u32              │
//! ├──────────────────────────────────────────────────────────────┤
//! │ regions, contiguous, each independently CRC-32 checksummed:  │
//! │   base:  dictionary · sources · facts · frames ·             │
//! │          taxonomy · sameAs · labels                          │
//! │   delta: delta-meta · dictionary · sources · facts · kinds · │
//! │          frames                                              │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! There is one format version and one reader. The permutation indexes
//! are serialized as the **frames** region: the fifteen delta/bitpacked
//! [`ColFrames`] columns exactly as they live in memory, so opening a
//! segment installs the compressed index without re-encoding. Every
//! door — the eager `open_segment`s, the lazy store open and its
//! first-touch faults, WAL replay — reads through a `SegmentSource`
//! (a file or an in-memory image) and shares one header parse
//! (`read_header`), one region fetch (`fetch_region`), one decoder
//! of the six base regions (`decode_base`) and one frames-layout
//! parser (`walk_layout`, then `read_metas` + `load_frames` over a
//! whole column or over one page of it). An image of any other
//! version is refused as a corrupt header.
//!
//! There is one writer, too: `ImageWriter` reserves the preamble and
//! region table, then encodes, checksums, writes and drops one region
//! at a time, and writes the table over its placeholder last. A file
//! (`write_segment`) and an in-memory image (the WAL payload) are the
//! same writer over different sinks, so at most one encoded region is
//! in memory while a segment is written.
//!
//! Two deliberate format choices keep cold-start cheap and recovery
//! honest:
//!
//! * **Redundant data is validated, never trusted.** On an eager open
//!   key columns are checked against the fact table, sortedness is
//!   verified, and offset buckets must equal the running prefix count
//!   of the leading column — all in `O(n)`, one decoded frame window at
//!   a time, with no sorting or re-compression on the open path.
//! * **Nothing derivable is trusted.** Lookup maps, live counts and
//!   delta counters are recomputed (or checked against a recomputation)
//!   on load, so a reader can never be bit-flipped into a silently
//!   wrong KB: every failure is a typed [`StoreError::Corrupt`] naming
//!   the damaged [`SegmentRegion`].

use std::borrow::Cow;
use std::io::{Cursor, Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

use crate::builder::KbCore;
use crate::error::{corrupt, SegmentRegion};
use crate::fact::{Fact, Triple};
use crate::frames::ColFrames;
use crate::ids::TermId;
use crate::idtable::TripleIds;
use crate::labels::LabelStore;
use crate::read::KbRead;
use crate::sameas::SameAsStore;
use crate::segmap::{
    load_col, walk_layout, FrameRegion, MemoryBudget, PagedCol, SegmentSource, FRAME_COLS,
};
use crate::segment::{DeltaSegment, FactKind};
use crate::snapshot::{EagerBase, FrozenIndexes, KbSnapshot, LazyBase, LazyIndexes, PermFrames};
use crate::taxonomy::Taxonomy;
use crate::time::TimeSpan;
use crate::SourceId;
use crate::{Dictionary, StoreError};

/// Magic for a base (full snapshot) segment file.
pub const MAGIC_BASE: [u8; 4] = *b"KBSG";
/// Magic for a delta segment file.
pub const MAGIC_DELTA: [u8; 4] = *b"KBDS";
/// The format version (compressed frames region). Readers accept this
/// and nothing else.
pub const FORMAT_VERSION: u32 = 2;

const PREAMBLE_LEN: usize = 16;
const REGION_ENTRY_LEN: usize = 1 + 8 + 8 + 4;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven and built at
// compile time — the container has no checksum crate to lean on.
//
// Uses the slicing-by-8 variant: eight derived tables let the hot loop
// consume 8 input bytes per iteration instead of 1, which matters here
// because every segment open re-checksums megabytes of columns on the
// cold-start path.

const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    // Table j advances the CRC by one extra zero byte relative to j-1,
    // so the 8 lookups in the hot loop can be XORed independently.
    let mut i = 0;
    while i < 256 {
        let mut c = t[0][i];
        let mut j = 1;
        while j < 8 {
            c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
            t[j][i] = c;
            j += 1;
        }
        i += 1;
    }
    t
}

/// Advances a raw (pre-inverted) CRC state over `data`.
fn crc32_advance(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 checksum of `data` (IEEE polynomial, init/final XOR `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_advance(!0, data)
}

/// Incremental CRC-32: feed chunks with [`update`](Crc32::update), then
/// [`finish`](Crc32::finish). Equivalent to [`crc32`] over the
/// concatenated input — this is what lets the lazy segment reader
/// verify a multi-megabyte region with an `O(1)`-memory streaming pass
/// instead of buffering the whole region.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Consumes the next chunk of input.
    pub fn update(&mut self, data: &[u8]) {
        self.state = crc32_advance(self.state, data);
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

// ---------------------------------------------------------------------
// Region tags.

fn region_tag(region: SegmentRegion) -> u8 {
    match region {
        SegmentRegion::Dictionary => 1,
        SegmentRegion::Sources => 2,
        SegmentRegion::Facts => 3,
        SegmentRegion::Kinds => 4,
        SegmentRegion::Taxonomy => 7,
        SegmentRegion::SameAs => 8,
        SegmentRegion::Labels => 9,
        SegmentRegion::DeltaMeta => 10,
        SegmentRegion::Frames => 11,
        // Never serialized as a segment region.
        SegmentRegion::Header
        | SegmentRegion::WalHeader
        | SegmentRegion::WalRecord
        | SegmentRegion::Manifest => 0,
    }
}

fn region_of_tag(tag: u8) -> Option<SegmentRegion> {
    Some(match tag {
        1 => SegmentRegion::Dictionary,
        2 => SegmentRegion::Sources,
        3 => SegmentRegion::Facts,
        4 => SegmentRegion::Kinds,
        7 => SegmentRegion::Taxonomy,
        8 => SegmentRegion::SameAs,
        9 => SegmentRegion::Labels,
        10 => SegmentRegion::DeltaMeta,
        11 => SegmentRegion::Frames,
        _ => return None,
    })
}

// ---------------------------------------------------------------------
// Little-endian encode helpers.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// Tests shrink the length-field capacity so the checked-cast error is
// exercisable without allocating 4 GiB. Thread-local so parallel tests
// cannot perturb each other.
#[cfg(test)]
thread_local! {
    static TEST_LEN_LIMIT: std::cell::Cell<usize> =
        const { std::cell::Cell::new(u32::MAX as usize) };
}

/// Runs `f` with the on-disk length-field limit lowered to `limit`
/// (test-only; scoped to the current thread).
#[cfg(test)]
pub(crate) fn with_len_limit<T>(limit: usize, f: impl FnOnce() -> T) -> T {
    TEST_LEN_LIMIT.with(|l| {
        let prev = l.replace(limit);
        let out = f();
        l.set(prev);
        out
    })
}

fn len_limit() -> usize {
    #[cfg(test)]
    return TEST_LEN_LIMIT.with(|l| l.get());
    #[cfg(not(test))]
    {
        u32::MAX as usize
    }
}

/// Checked conversion of a length into its `u32` on-disk field. A value
/// that does not fit is a typed [`StoreError::TooLarge`], never a
/// silent truncation: a truncated length field would frame the rest of
/// the file wrong and surface (at best) as a CRC mismatch at reopen.
pub(crate) fn check_len(len: usize, region: SegmentRegion) -> Result<u32, StoreError> {
    if len > len_limit() {
        return Err(StoreError::TooLarge { region, len });
    }
    u32::try_from(len).map_err(|_| StoreError::TooLarge { region, len })
}

fn put_len(out: &mut Vec<u8>, len: usize, region: SegmentRegion) -> Result<(), StoreError> {
    let v = check_len(len, region)?;
    put_u32(out, v);
    Ok(())
}

fn put_str(out: &mut Vec<u8>, s: &str, region: SegmentRegion) -> Result<(), StoreError> {
    put_len(out, s.len(), region)?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

// ---------------------------------------------------------------------
// Bounds-checked decode cursor. Every read that would run past the
// region's end is a typed corruption, never a panic.

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
    region: SegmentRegion,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8], region: SegmentRegion) -> Self {
        Self { buf, pos: 0, region }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            corrupt(self.region, format!("truncated: wanted {n} bytes at offset {}", self.pos))
        })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str_u32(&mut self) -> Result<&'a str, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| corrupt(self.region, "invalid UTF-8 string"))
    }

    /// A length prefix about to drive a `Vec::with_capacity`: reject
    /// counts that could not possibly fit in the remaining bytes, so a
    /// corrupted length can't trigger a huge allocation.
    fn count(&mut self, min_item_bytes: usize) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_item_bytes) > remaining {
            return Err(corrupt(
                self.region,
                format!("implausible element count {n} for {remaining} remaining bytes"),
            ));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), StoreError> {
        if self.pos != self.buf.len() {
            return Err(corrupt(
                self.region,
                format!("{} trailing bytes after decoded payload", self.buf.len() - self.pos),
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Region encoders.

fn encode_terms(
    terms: impl Iterator<Item = impl AsRef<str>>,
    count: usize,
    region: SegmentRegion,
) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::new();
    put_len(&mut out, count, region)?;
    for t in terms {
        put_str(&mut out, t.as_ref(), region)?;
    }
    Ok(out)
}

fn encode_facts(facts: &[Fact]) -> Result<Vec<u8>, StoreError> {
    let mut out = Vec::with_capacity(4 + facts.len() * 25);
    put_len(&mut out, facts.len(), SegmentRegion::Facts)?;
    for f in facts {
        put_u32(&mut out, f.triple.s.0);
        put_u32(&mut out, f.triple.p.0);
        put_u32(&mut out, f.triple.o.0);
        put_u64(&mut out, f.confidence.to_bits());
        put_u32(&mut out, f.source.0);
        match f.span {
            None => out.push(0),
            Some(span) => {
                out.push(1);
                let text = span.to_string();
                put_u16(&mut out, text.len() as u16);
                out.extend_from_slice(text.as_bytes());
            }
        }
    }
    Ok(out)
}

/// Bytes per serialized frame descriptor: base u32 · enc u8 · width u8
/// · end u32.
pub(crate) const FRAME_META_LEN: usize = 4 + 1 + 1 + 4;

/// Serializes the fifteen compressed index columns (the frames region).
/// Per column: row count, frame descriptors, then the raw payload —
/// exactly the in-memory representation, so a reader installs it
/// without re-encoding.
fn encode_frames(cols: [&ColFrames; 15]) -> Result<Vec<u8>, StoreError> {
    let region = SegmentRegion::Frames;
    let size = cols.iter().map(|c| 12 + c.n_frames() * FRAME_META_LEN + c.payload().len()).sum();
    let mut out = Vec::with_capacity(size);
    for col in cols {
        put_len(&mut out, col.len(), region)?;
        put_len(&mut out, col.n_frames(), region)?;
        for m in col.metas() {
            put_u32(&mut out, m.base);
            out.push(m.enc);
            out.push(m.width);
            put_u32(&mut out, m.end);
        }
        let payload = col.payload();
        put_len(&mut out, payload.len(), region)?;
        out.extend_from_slice(payload);
    }
    Ok(out)
}

fn encode_taxonomy(tax: &Taxonomy) -> Result<Vec<u8>, StoreError> {
    let region = SegmentRegion::Taxonomy;
    let mut out = Vec::new();
    let classes = tax.all_classes();
    put_len(&mut out, classes.len(), region)?;
    for c in &classes {
        put_u32(&mut out, c.0);
    }
    let mut edges: Vec<(TermId, TermId)> = tax.edges().collect();
    edges.sort_unstable();
    put_len(&mut out, edges.len(), region)?;
    for (sub, sup) in edges {
        put_u32(&mut out, sub.0);
        put_u32(&mut out, sup.0);
    }
    Ok(out)
}

fn encode_sameas(sameas: &SameAsStore) -> Result<Vec<u8>, StoreError> {
    let region = SegmentRegion::SameAs;
    let mut out = Vec::new();
    let classes = sameas.classes();
    put_len(&mut out, classes.len(), region)?;
    for class in classes {
        put_len(&mut out, class.len(), region)?;
        for m in class {
            put_u32(&mut out, m.0);
        }
    }
    Ok(out)
}

fn encode_labels(labels: &LabelStore) -> Result<Vec<u8>, StoreError> {
    let region = SegmentRegion::Labels;
    let mut all: Vec<(TermId, &str, &str)> = labels
        .iter()
        .map(|(term, lang, form)| (term, labels.lang_tag(lang).unwrap_or(""), form))
        .collect();
    all.sort_unstable();
    let mut out = Vec::new();
    put_len(&mut out, all.len(), region)?;
    for (term, tag, form) in all {
        put_u32(&mut out, term.0);
        put_str(&mut out, tag, region)?;
        put_str(&mut out, form, region)?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Region decoders.

/// Decodes a dictionary or sources region straight into a
/// [`Dictionary`]'s arena: one pass appends each name's text (checked
/// UTF-8) behind the last and records where it ends, then
/// [`Dictionary::from_arena`] builds the id table in a second pass that
/// refuses a repeated name with `duplicate`.
fn decode_terms(
    source: &SegmentSource<'_>,
    entries: &[RegionEntry],
    region: SegmentRegion,
    duplicate: &str,
) -> Result<Dictionary, StoreError> {
    let buf = fetch_region(source, entries, region)?;
    let mut cur = Cur::new(&buf, region);
    let n = cur.count(4)?;
    // What is left after the length fields is exactly the text of a
    // well-formed region.
    let mut text = String::with_capacity(buf.len() - cur.pos - 4 * n);
    let mut ends = Vec::with_capacity(n);
    for i in 0..n {
        text.push_str(cur.str_u32()?);
        let end = u32::try_from(text.len()).ok().filter(|&e| e as usize <= len_limit());
        ends.push(end.ok_or_else(|| {
            corrupt(region, format!("term {i}: text runs past the u32 offset range"))
        })?);
    }
    cur.finish()?;
    Dictionary::from_arena(text, ends).ok_or_else(|| corrupt(region, duplicate))
}

/// Decodes the fact table, rejecting non-finite or out-of-range
/// confidences — a bit flip in a float must not poison ranking math.
/// Term/source id range checks live in [`check_fact_ids`] so the base
/// loader can decode facts before the dictionary is available.
fn decode_facts(buf: &[u8]) -> Result<Vec<Fact>, StoreError> {
    let region = SegmentRegion::Facts;
    let mut cur = Cur::new(buf, region);
    let n = cur.count(22)?;
    let mut facts = Vec::with_capacity(n);
    for i in 0..n {
        let (s, p, o) = (cur.u32()?, cur.u32()?, cur.u32()?);
        let confidence = f64::from_bits(cur.u64()?);
        if !confidence.is_finite() || !(0.0..=1.0).contains(&confidence) {
            return Err(corrupt(region, format!("fact {i}: confidence {confidence} out of range")));
        }
        let source = cur.u32()?;
        let span = match cur.u8()? {
            0 => None,
            1 => {
                let len = cur.u16()? as usize;
                let bytes = cur.take(len)?;
                let text = std::str::from_utf8(bytes)
                    .map_err(|_| corrupt(region, format!("fact {i}: span is not UTF-8")))?;
                Some(TimeSpan::parse(text).ok_or_else(|| {
                    corrupt(region, format!("fact {i}: unparseable span {text:?}"))
                })?)
            }
            flag => return Err(corrupt(region, format!("fact {i}: invalid span flag {flag}"))),
        };
        facts.push(Fact {
            triple: Triple::new(TermId(s), TermId(p), TermId(o)),
            confidence,
            source: SourceId(source),
            span,
        });
    }
    cur.finish()?;
    Ok(facts)
}

/// Files each fact's row by its triple, refusing a triple that an
/// earlier row already holds.
fn checked_triple_ids(facts: &[Fact]) -> Result<TripleIds, StoreError> {
    TripleIds::checked(facts)
        .map_err(|i| corrupt(SegmentRegion::Facts, format!("fact {i}: duplicate triple")))
}

/// Range-checks every fact's term and source ids against the caller's
/// universe. Split from [`decode_facts`] so validation can run after a
/// concurrently-decoded dictionary lands.
fn check_fact_ids(
    facts: &[Fact],
    term_count: usize,
    source_count: usize,
) -> Result<(), StoreError> {
    let region = SegmentRegion::Facts;
    for (i, f) in facts.iter().enumerate() {
        for id in [f.triple.s, f.triple.p, f.triple.o] {
            if id.index() >= term_count {
                return Err(corrupt(
                    region,
                    format!("fact {i}: term id {} out of range ({term_count} terms)", id.0),
                ));
            }
        }
        if f.source.0 as usize >= source_count {
            return Err(corrupt(
                region,
                format!("fact {i}: source id {} out of range ({source_count} sources)", f.source.0),
            ));
        }
    }
    Ok(())
}

fn decode_taxonomy(buf: &[u8], term_count: usize) -> Result<Taxonomy, StoreError> {
    let region = SegmentRegion::Taxonomy;
    let mut cur = Cur::new(buf, region);
    let mut tax = Taxonomy::new();
    let classes = cur.count(4)?;
    for _ in 0..classes {
        let c = cur.u32()?;
        if c as usize >= term_count {
            return Err(corrupt(region, format!("class id {c} out of range")));
        }
        tax.add_class(TermId(c));
    }
    let edges = cur.count(8)?;
    for _ in 0..edges {
        let (sub, sup) = (cur.u32()?, cur.u32()?);
        if sub as usize >= term_count || sup as usize >= term_count {
            return Err(corrupt(region, format!("edge {sub}->{sup} out of term range")));
        }
        tax.add_subclass(TermId(sub), TermId(sup))
            .map_err(|e| corrupt(region, format!("invalid subclass edge: {e}")))?;
    }
    cur.finish()?;
    Ok(tax)
}

fn decode_sameas(buf: &[u8], term_count: usize) -> Result<SameAsStore, StoreError> {
    let region = SegmentRegion::SameAs;
    let mut cur = Cur::new(buf, region);
    let mut store = SameAsStore::new();
    let classes = cur.count(8)?;
    for _ in 0..classes {
        let members = cur.count(4)?;
        if members < 2 {
            return Err(corrupt(region, format!("equivalence class of size {members}")));
        }
        let first = cur.u32()?;
        if first as usize >= term_count {
            return Err(corrupt(region, format!("term id {first} out of range")));
        }
        for _ in 1..members {
            let m = cur.u32()?;
            if m as usize >= term_count {
                return Err(corrupt(region, format!("term id {m} out of range")));
            }
            store.declare(TermId(first), TermId(m));
        }
    }
    cur.finish()?;
    Ok(store)
}

fn decode_labels(buf: &[u8], term_count: usize) -> Result<LabelStore, StoreError> {
    let region = SegmentRegion::Labels;
    let mut cur = Cur::new(buf, region);
    let mut labels = LabelStore::new();
    let n = cur.count(12)?;
    for _ in 0..n {
        let term = cur.u32()?;
        if term as usize >= term_count {
            return Err(corrupt(region, format!("label term id {term} out of range")));
        }
        let tag = cur.str_u32()?.to_string();
        let form = cur.str_u32()?;
        let lang = labels.lang(&tag);
        labels.add(TermId(term), lang, form);
    }
    cur.finish()?;
    Ok(labels)
}

// ---------------------------------------------------------------------
// Image writing: a placeholder for preamble + region table, then each
// region encoded, checksummed, written and dropped in turn, then the
// real preamble and table over the placeholder.

/// Streams one segment image into `out`. At most one encoded region is
/// alive at a time; the region table is written last, at offset 0, over
/// the zeroed placeholder [`new`](Self::new) reserved for it.
struct ImageWriter<W: Write + Seek> {
    out: W,
    header: Vec<u8>,
    regions: usize,
    offset: u64,
}

impl<W: Write + Seek> ImageWriter<W> {
    /// Reserves the preamble and a table of `regions` entries.
    fn new(mut out: W, regions: usize) -> Result<Self, StoreError> {
        let header_len = 4 + regions * REGION_ENTRY_LEN;
        let mut header = Vec::with_capacity(header_len);
        put_u32(&mut header, regions as u32);
        out.write_all(&vec![0u8; PREAMBLE_LEN + header_len])?;
        Ok(Self { out, header, regions, offset: (PREAMBLE_LEN + header_len) as u64 })
    }

    /// Appends the next region's payload and its table entry.
    fn region(&mut self, region: SegmentRegion, payload: Vec<u8>) -> Result<(), StoreError> {
        self.header.push(region_tag(region));
        put_u64(&mut self.header, self.offset);
        put_u64(&mut self.header, payload.len() as u64);
        put_u32(&mut self.header, crc32(&payload));
        self.out.write_all(&payload)?;
        self.offset += payload.len() as u64;
        Ok(())
    }

    /// Writes the preamble and the region table over the placeholder;
    /// returns the sink and the image length.
    fn finish(mut self, magic: [u8; 4]) -> Result<(W, u64), StoreError> {
        debug_assert_eq!(self.header.len(), 4 + self.regions * REGION_ENTRY_LEN);
        let mut preamble = Vec::with_capacity(PREAMBLE_LEN);
        preamble.extend_from_slice(&magic);
        put_u32(&mut preamble, FORMAT_VERSION);
        put_u32(&mut preamble, self.header.len() as u32);
        put_u32(&mut preamble, crc32(&self.header));
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&preamble)?;
        self.out.write_all(&self.header)?;
        Ok((self.out, self.offset))
    }
}

/// Parses and validates the preamble + region table of a segment image,
/// returning each region's byte range within the buffer (the header's
/// own range is reported under [`SegmentRegion::Header`]).
///
/// This is the *diagnostic* entry point: corruption-injection tests and
/// tooling use it to locate regions; the real readers parse the same
/// header and add per-region CRC and structural validation.
pub fn region_map(buf: &[u8]) -> Result<Vec<(SegmentRegion, Range<usize>)>, StoreError> {
    let entries = read_header(&SegmentSource::image(buf), None)?;
    // `read_header` accepts only a table that fills the header exactly.
    let header_end = PREAMBLE_LEN + 4 + entries.len() * REGION_ENTRY_LEN;
    let mut out = vec![(SegmentRegion::Header, 0..header_end)];
    out.extend(entries.into_iter().map(|e| (e.region, e.range)));
    Ok(out)
}

/// One row of a parsed region table: where a region's payload lives in
/// the file and the CRC it must hash to.
#[derive(Debug, Clone)]
pub(crate) struct RegionEntry {
    pub(crate) region: SegmentRegion,
    pub(crate) range: Range<usize>,
    pub(crate) crc: u32,
}

/// Reads the preamble and the region table off the front of an image —
/// a few hundred bytes however large the segment — and validates them:
/// magic, segment kind (`expect_magic: None` accepts either), version,
/// header length and CRC, and every region's bounds against the image
/// length.
pub(crate) fn read_header(
    source: &SegmentSource<'_>,
    expect_magic: Option<[u8; 4]>,
) -> Result<Vec<RegionEntry>, StoreError> {
    let region = SegmentRegion::Header;
    let data_len = source.len() as usize;
    if data_len < PREAMBLE_LEN {
        return Err(corrupt(region, "file shorter than the 16-byte preamble"));
    }
    let mut preamble = [0u8; PREAMBLE_LEN];
    source.read_exact_at(0, &mut preamble)?;
    let magic: [u8; 4] = preamble[0..4].try_into().unwrap();
    if magic != MAGIC_BASE && magic != MAGIC_DELTA {
        return Err(corrupt(region, format!("bad magic {magic:02x?}")));
    }
    if let Some(want) = expect_magic {
        if magic != want {
            return Err(corrupt(
                region,
                format!(
                    "wrong segment kind: expected {:?}, found {:?}",
                    String::from_utf8_lossy(&want),
                    String::from_utf8_lossy(&magic)
                ),
            ));
        }
    }
    let version = u32::from_le_bytes(preamble[4..8].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(corrupt(
            region,
            format!("unsupported format version {version} (reader supports {FORMAT_VERSION})"),
        ));
    }
    let header_len = u32::from_le_bytes(preamble[8..12].try_into().unwrap()) as usize;
    let header_crc = u32::from_le_bytes(preamble[12..16].try_into().unwrap());
    let header_end = PREAMBLE_LEN
        .checked_add(header_len)
        .filter(|&e| e <= data_len)
        .ok_or_else(|| corrupt(region, "header length runs past end of file"))?;
    let header = source.read_range(PREAMBLE_LEN..header_end)?;
    if crc32(&header) != header_crc {
        return Err(corrupt(region, "header checksum mismatch"));
    }
    let mut cur = Cur::new(&header, region);
    let n = cur.count(REGION_ENTRY_LEN)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = cur.u8()?;
        let offset = cur.u64()? as usize;
        let len = cur.u64()? as usize;
        let crc = cur.u32()?;
        let r = region_of_tag(tag)
            .ok_or_else(|| corrupt(region, format!("unknown region tag {tag}")))?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= data_len)
            .ok_or_else(|| corrupt(region, format!("region {r} runs past end of file")))?;
        entries.push(RegionEntry { region: r, range: offset..end, crc });
    }
    cur.finish()?;
    Ok(entries)
}

fn locate(entries: &[RegionEntry], want: SegmentRegion) -> Result<&RegionEntry, StoreError> {
    entries
        .iter()
        .find(|e| e.region == want)
        .ok_or_else(|| corrupt(SegmentRegion::Header, format!("missing {want} region")))
}

/// Locates a region, reads its payload (one positioned read on a file,
/// a borrow of an in-memory image), and verifies its CRC.
pub(crate) fn fetch_region<'s>(
    source: &'s SegmentSource<'_>,
    entries: &[RegionEntry],
    want: SegmentRegion,
) -> Result<Cow<'s, [u8]>, StoreError> {
    let e = locate(entries, want)?;
    let payload = source.read_range(e.range.clone())?;
    if crc32(&payload) != e.crc {
        return Err(corrupt(want, "checksum mismatch"));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// Base snapshot image.

/// Streams a base snapshot's segment image into `out` (the compressed
/// frames region carries the indexes verbatim); returns the sink and
/// the image length.
fn write_snapshot<W: Write + Seek>(snap: &KbSnapshot, out: W) -> Result<(W, u64), StoreError> {
    let core = snap.core();
    let mut w = ImageWriter::new(out, 7)?;
    w.region(
        SegmentRegion::Dictionary,
        encode_terms(core.dict.iter().map(|(_, t)| t), core.dict.len(), SegmentRegion::Dictionary)?,
    )?;
    w.region(
        SegmentRegion::Sources,
        encode_terms(
            core.sources.iter().map(|(_, s)| s),
            core.sources.len(),
            SegmentRegion::Sources,
        )?,
    )?;
    w.region(SegmentRegion::Facts, encode_facts(&core.facts)?)?;
    w.region(SegmentRegion::Frames, encode_frames(snap.indexes.frame_cols())?)?;
    w.region(SegmentRegion::Taxonomy, encode_taxonomy(snap.taxonomy())?)?;
    w.region(SegmentRegion::SameAs, encode_sameas(snap.sameas())?)?;
    w.region(SegmentRegion::Labels, encode_labels(snap.labels())?)?;
    w.finish(MAGIC_BASE)
}

/// A base snapshot's segment image in memory: [`write_snapshot`] over
/// a `Vec`, byte for byte the file `write_segment` writes.
#[cfg(test)]
pub(crate) fn snapshot_to_bytes(snap: &KbSnapshot) -> Result<Vec<u8>, StoreError> {
    Ok(write_snapshot(snap, Cursor::new(Vec::new()))?.0.into_inner())
}

/// Decodes the base (non-index) regions of a base segment: dictionary,
/// sources, facts, taxonomy, sameAs, labels — each fetched once and
/// CRC-verified, then cross-checked (no duplicate term, source or
/// triple; every fact's ids inside the term and source universe). The
/// eager open runs it at open, a lazily opened snapshot on first touch
/// (at most once, cached in [`LazyBase`]), so a corrupt region is the
/// same typed error either way.
pub(crate) fn decode_base(
    source: &SegmentSource<'_>,
    entries: &[RegionEntry],
) -> Result<EagerBase, StoreError> {
    let facts = decode_facts(&fetch_region(source, entries, SegmentRegion::Facts)?)?;
    let live = facts.iter().filter(|f| !f.is_retracted()).count();

    let dict =
        decode_terms(source, entries, SegmentRegion::Dictionary, "duplicate term in dictionary")?;
    let sources = decode_terms(source, entries, SegmentRegion::Sources, "duplicate source")?;
    let by_triple = checked_triple_ids(&facts)?;
    check_fact_ids(&facts, dict.len(), sources.len())?;

    let taxonomy =
        decode_taxonomy(&fetch_region(source, entries, SegmentRegion::Taxonomy)?, dict.len())?;
    let sameas = decode_sameas(&fetch_region(source, entries, SegmentRegion::SameAs)?, dict.len())?;
    let labels = decode_labels(&fetch_region(source, entries, SegmentRegion::Labels)?, dict.len())?;

    let core = KbCore { dict, facts, by_triple, sources, live, ..KbCore::default() };
    Ok(EagerBase { core, taxonomy, sameas, labels })
}

/// Decodes the frames region into resident indexes and cross-checks
/// them against the fact table ([`FrozenIndexes::from_frames`]). The
/// columns are loaded one at a time straight from the source, by the
/// same layout walk and column load a lazy open runs, and the region's
/// CRC is advanced over them as they are read; it is checked before
/// the cross-check runs. `expected_len` / `is_base` carry the
/// segment-kind invariants down to the validators.
fn decode_indexes(
    source: &SegmentSource<'_>,
    entries: &[RegionEntry],
    facts: &[Fact],
    expected_len: usize,
    is_base: bool,
) -> Result<FrozenIndexes, StoreError> {
    let e = locate(entries, SegmentRegion::Frames)?;
    let layout = walk_layout(source, e.range.clone())?;
    let mut crc = Crc32::new();
    let mut col = |i: usize| load_col(source, &layout, i, &mut crc);
    let mut perm = |at: usize| -> Result<PermFrames, StoreError> {
        Ok(PermFrames::from_cols(col(at)?, col(at + 1)?, col(at + 2)?, col(at + 3)?))
    };
    let perms = [perm(0)?, perm(4)?, perm(8)?];
    let starts = [col(12)?, col(13)?, col(14)?];
    if crc.finish() != e.crc {
        return Err(corrupt(SegmentRegion::Frames, "checksum mismatch"));
    }
    FrozenIndexes::from_frames(facts, expected_len, is_base, perms, starts)
}

/// Decodes and fully validates a base snapshot image: header, the six
/// base regions, then the indexes checked against the fact table.
fn decode_snapshot(source: &SegmentSource<'_>) -> Result<KbSnapshot, StoreError> {
    let entries = read_header(source, Some(MAGIC_BASE))?;
    let EagerBase { core, taxonomy, sameas, labels } = decode_base(source, &entries)?;
    // A base segment indexes exactly its live facts, none retracted.
    let indexes = decode_indexes(source, &entries, &core.facts, core.live, true)?;
    Ok(KbSnapshot::from_parts(core, taxonomy, sameas, labels, indexes))
}

// ---------------------------------------------------------------------
// Lazy (paged) opens.

/// Reads a count-prefixed region's leading `u32` without touching the
/// rest of the payload. The four bytes are *not* CRC-verified (that
/// happens when the region faults in); see
/// [`KbSnapshot::verify_counts`] for the one caller that must not act
/// on them unverified.
fn region_count_prefix(
    source: &SegmentSource<'_>,
    entries: &[RegionEntry],
    want: SegmentRegion,
) -> Result<usize, StoreError> {
    let e = locate(entries, want)?;
    if e.range.len() < 4 {
        return Err(corrupt(want, "region shorter than its count prefix"));
    }
    let mut buf = [0u8; 4];
    source.read_exact_at(e.range.start as u64, &mut buf)?;
    Ok(u32::from_le_bytes(buf) as usize)
}

/// Builds a [`FrozenIndexes::Lazy`] over a file's frames region: one
/// [`PagedCol`] per column, whose pages are charged to `budget` as they
/// fault in. Nothing is read yet beyond what the caller already parsed.
fn lazy_indexes(
    source: &Arc<SegmentSource<'static>>,
    entries: &[RegionEntry],
    budget: &MemoryBudget,
) -> Result<FrozenIndexes, StoreError> {
    let e = locate(entries, SegmentRegion::Frames)?;
    let region = Arc::new(FrameRegion::new(Arc::clone(source), e.range.clone(), e.crc));
    let cols: [Arc<PagedCol>; FRAME_COLS] =
        std::array::from_fn(|i| PagedCol::new(Arc::clone(&region), i, budget.clone()));
    Ok(FrozenIndexes::Lazy(LazyIndexes::new(region, cols)))
}

/// Opens a base segment lazily: reads and validates only the preamble
/// and region table (plus the dictionary's and the source table's
/// four-byte count prefixes, which delta stacking needs), then hands
/// back a [`KbSnapshot`] whose base regions fault in on first access
/// and whose index columns page in (and spill back out) under `budget`.
/// Open cost is `O(header)`, independent of KB size.
///
/// Corruption anywhere past the header surfaces on *first access* as a
/// typed [`StoreError::Corrupt`]; call [`KbSnapshot::prefault`] right
/// after open to get eager-open error semantics back.
pub(crate) fn snapshot_open_lazy(
    path: &Path,
    budget: &MemoryBudget,
) -> Result<KbSnapshot, StoreError> {
    let obs = kb_obs::global();
    let span = obs.span("store.segment.open_us");
    let source = Arc::new(SegmentSource::open(path)?);
    let entries = read_header(&source, Some(MAGIC_BASE))?;
    let counts = (
        region_count_prefix(&source, &entries, SegmentRegion::Dictionary)?,
        region_count_prefix(&source, &entries, SegmentRegion::Sources)?,
    );
    let indexes = lazy_indexes(&source, &entries, budget)?;
    let snap = KbSnapshot::from_lazy(Arc::new(LazyBase::new(source, entries, counts)), indexes);
    span.stop();
    obs.counter("store.segment.opens").inc();
    Ok(snap)
}

/// Opens a sealed delta segment with pageable index columns: the image
/// is read and *fully validated* eagerly (deltas are small relative to
/// the base, and the quarantine/recovery story depends on open-time
/// validation), then — only under a bounded budget — the decoded index
/// columns are swapped for lazy slots so they can spill. Under an
/// unbounded budget the eager indexes are kept as-is: re-reading what
/// was just decoded would double the open cost for nothing.
pub(crate) fn delta_open_lazy(
    path: &Path,
    budget: &MemoryBudget,
) -> Result<DeltaSegment, StoreError> {
    let source = Arc::new(SegmentSource::open(path)?);
    let entries = read_header(&source, Some(MAGIC_DELTA))?;
    let mut delta = decode_delta(&source, &entries)?;
    if budget.limit().is_some() {
        delta.indexes = lazy_indexes(&source, &entries, budget)?;
    }
    Ok(delta)
}

// ---------------------------------------------------------------------
// Delta segment image.

/// Streams a delta segment's image into `out`; returns the sink and the
/// image length.
fn write_delta<W: Write + Seek>(delta: &DeltaSegment, out: W) -> Result<(W, u64), StoreError> {
    let mut w = ImageWriter::new(out, 6)?;
    let mut meta = Vec::with_capacity(8);
    put_u32(&mut meta, delta.first_term().0);
    put_u32(&mut meta, delta.first_source);
    w.region(SegmentRegion::DeltaMeta, meta)?;
    w.region(
        SegmentRegion::Dictionary,
        encode_terms(delta.ext_terms.iter(), delta.ext_terms.len(), SegmentRegion::Dictionary)?,
    )?;
    w.region(
        SegmentRegion::Sources,
        encode_terms(delta.ext_sources.iter(), delta.ext_sources.len(), SegmentRegion::Sources)?,
    )?;
    w.region(SegmentRegion::Facts, encode_facts(&delta.facts)?)?;
    let mut kinds = Vec::with_capacity(4 + delta.kinds.len());
    put_len(&mut kinds, delta.kinds.len(), SegmentRegion::Kinds)?;
    kinds.extend(delta.kinds.iter().map(|k| match k {
        FactKind::New => 0u8,
        FactKind::Shadow => 1,
        FactKind::Tombstone => 2,
    }));
    w.region(SegmentRegion::Kinds, kinds)?;
    w.region(SegmentRegion::Frames, encode_frames(delta.indexes.frame_cols())?)?;
    w.finish(MAGIC_DELTA)
}

/// A delta segment's image in memory (also the WAL payload):
/// [`write_delta`] over a `Vec`.
pub(crate) fn delta_to_bytes(delta: &DeltaSegment) -> Result<Vec<u8>, StoreError> {
    Ok(write_delta(delta, Cursor::new(Vec::new()))?.0.into_inner())
}

/// Deserializes and fully validates a delta segment image held in
/// memory (a WAL payload); a sealed file goes through
/// [`delta_open_lazy`] and the same [`decode_delta`].
pub(crate) fn delta_from_bytes(buf: &[u8]) -> Result<DeltaSegment, StoreError> {
    let source = SegmentSource::image(buf);
    decode_delta(&source, &read_header(&source, Some(MAGIC_DELTA))?)
}

/// Decodes and fully validates the regions of a delta image. Whether the
/// delta actually stacks on a given view is checked at install time
/// ([`SegmentedSnapshot::try_with_delta`](crate::SegmentedSnapshot::try_with_delta));
/// here ids are validated against the universe the delta itself declares
/// (`first_term + ext_terms`, `first_source + ext_sources`).
fn decode_delta(
    source: &SegmentSource<'_>,
    entries: &[RegionEntry],
) -> Result<DeltaSegment, StoreError> {
    let meta = fetch_region(source, entries, SegmentRegion::DeltaMeta)?;
    let mut cur = Cur::new(&meta, SegmentRegion::DeltaMeta);
    let first_term = cur.u32()?;
    let first_source = cur.u32()?;
    cur.finish()?;

    let ext_terms =
        decode_terms(source, entries, SegmentRegion::Dictionary, "duplicate extension term")?
            .into_arena();
    let ext_sources =
        decode_terms(source, entries, SegmentRegion::Sources, "duplicate extension source")?
            .into_arena();

    let term_count = first_term as usize + ext_terms.len();
    let source_count = first_source as usize + ext_sources.len();
    let facts = decode_facts(&fetch_region(source, entries, SegmentRegion::Facts)?)?;
    check_fact_ids(&facts, term_count, source_count)?;
    let by_triple = checked_triple_ids(&facts)?;

    let kinds_buf = fetch_region(source, entries, SegmentRegion::Kinds)?;
    let mut cur = Cur::new(&kinds_buf, SegmentRegion::Kinds);
    let n = cur.count(1)?;
    if n != facts.len() {
        return Err(corrupt(SegmentRegion::Kinds, format!("{n} kinds for {} facts", facts.len())));
    }
    let mut kinds = Vec::with_capacity(n);
    for (i, fact) in facts.iter().enumerate() {
        let kind = match cur.u8()? {
            0 => FactKind::New,
            1 => FactKind::Shadow,
            2 => FactKind::Tombstone,
            tag => return Err(corrupt(SegmentRegion::Kinds, format!("invalid kind tag {tag}"))),
        };
        // The tombstone marker and the confidence-zero convention must
        // agree, or merge semantics would silently diverge.
        if (kind == FactKind::Tombstone) != fact.is_retracted() {
            return Err(corrupt(
                SegmentRegion::Kinds,
                format!("fact {i}: kind {kind:?} disagrees with confidence {}", fact.confidence),
            ));
        }
        kinds.push(kind);
    }
    cur.finish()?;

    // A delta indexes *all* its entries, tombstones included.
    let indexes = decode_indexes(source, entries, &facts, facts.len(), false)?;

    Ok(DeltaSegment::from_parts(
        ext_terms,
        first_term,
        ext_sources,
        first_source,
        facts,
        kinds,
        by_triple,
        indexes,
    ))
}

// ---------------------------------------------------------------------
// File-level helpers.

/// Writes `bytes` to `path` atomically (see [`write_atomic_with`]).
pub(crate) fn write_file_atomic(path: &Path, bytes: &[u8], fsync: bool) -> Result<(), StoreError> {
    write_atomic_with(path, fsync, |f| Ok(f.write_all(bytes)?))
}

/// Creates `path` atomically: `write` fills a sibling temp file, which
/// is flushed (+ optionally fsynced) and renamed into place, then the
/// parent directory is fsynced so the rename itself is durable. A write
/// that fails removes the temp file.
fn write_atomic_with<T>(
    path: &Path,
    fsync: bool,
    write: impl FnOnce(&mut std::fs::File) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let tmp = path.with_extension("tmp");
    let write_tmp = || -> Result<T, StoreError> {
        let mut f = std::fs::File::create(&tmp)?;
        let out = write(&mut f)?;
        f.flush()?;
        if fsync {
            sync_file(&f)?;
        }
        Ok(out)
    };
    let out = write_tmp().inspect_err(|_| {
        std::fs::remove_file(&tmp).ok();
    })?;
    std::fs::rename(&tmp, path)?;
    if fsync {
        fsync_dir(path.parent().unwrap_or_else(|| Path::new(".")))?;
    }
    Ok(out)
}

/// `sync_all` on a file or directory handle, counted in `store.fsyncs`.
/// Every sync the store issues goes through here, so the counter is the
/// evidence that `StoreOptions { fsync: false }` really issues none.
pub(crate) fn sync_file(file: &std::fs::File) -> std::io::Result<()> {
    kb_obs::global().counter("store.fsyncs").inc();
    file.sync_all()
}

/// Fsyncs a directory so a just-completed rename/create within it
/// survives power loss. Best-effort on platforms that refuse to open
/// directories for sync.
pub(crate) fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    match std::fs::File::open(dir) {
        Ok(f) => {
            sync_file(&f).ok();
            Ok(())
        }
        Err(_) => Ok(()),
    }
}

impl KbSnapshot {
    /// Writes this snapshot as a checksummed base segment file
    /// (atomically; fsynced). Returns the number of bytes written.
    pub fn write_segment(&self, path: impl AsRef<Path>) -> Result<u64, StoreError> {
        self.write_segment_with(path.as_ref(), true)
    }

    /// [`write_segment`](Self::write_segment) with the fsync under the
    /// caller's control: the segment store passes its
    /// [`StoreOptions::fsync`](crate::StoreOptions::fsync).
    pub(crate) fn write_segment_with(&self, path: &Path, fsync: bool) -> Result<u64, StoreError> {
        let obs = kb_obs::global();
        let span = obs.span("store.segment.write_us");
        let len = write_atomic_with(path, fsync, |f| Ok(write_snapshot(self, f)?.1))?;
        span.stop();
        obs.counter("store.segment.writes").inc();
        Ok(len)
    }

    /// Opens a base segment file, validating every checksum and
    /// structural invariant. `O(n)` — no sorting, no re-indexing.
    pub fn open_segment(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        let obs = kb_obs::global();
        let span = obs.span("store.segment.open_us");
        let snap = decode_snapshot(&SegmentSource::open(path.as_ref())?)?;
        span.stop();
        obs.counter("store.segment.opens").inc();
        Ok(snap)
    }
}

impl DeltaSegment {
    /// Writes this delta as a checksummed delta segment file
    /// (atomically; fsynced). Returns the number of bytes written.
    pub fn write_segment(&self, path: impl AsRef<Path>) -> Result<u64, StoreError> {
        self.write_segment_with(path.as_ref(), true)
    }

    /// [`write_segment`](Self::write_segment) with the fsync under the
    /// caller's control: the segment store passes its
    /// [`StoreOptions::fsync`](crate::StoreOptions::fsync).
    pub(crate) fn write_segment_with(&self, path: &Path, fsync: bool) -> Result<u64, StoreError> {
        write_atomic_with(path, fsync, |f| Ok(write_delta(self, f)?.1))
    }

    /// Opens a delta segment file, validating checksums and structure.
    pub fn open_segment(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        delta_open_lazy(path.as_ref(), &MemoryBudget::unbounded())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FactId, KbBuilder, SegmentedSnapshot, TimePoint, TriplePattern};

    /// The eager door over an in-memory image.
    fn snapshot_from_image(bytes: &[u8]) -> Result<KbSnapshot, StoreError> {
        decode_snapshot(&SegmentSource::image(bytes))
    }

    fn sample_snapshot() -> KbSnapshot {
        let mut b = KbBuilder::new();
        let src = b.register_source("wikipedia");
        b.assert_str("Steve_Jobs", "founded", "Apple_Inc");
        b.assert_str("Steve_Jobs", "type", "person");
        b.assert_str("person", "subclassOf", "entity");
        let t = Triple::new(b.intern("Steve_Jobs"), b.intern("bornIn"), b.intern("SF"));
        b.add_fact(Fact {
            triple: t,
            confidence: 0.75,
            source: src,
            span: Some(TimeSpan::at(TimePoint::date(1955, 2, 24))),
        });
        b.retract_str("Steve_Jobs", "type", "person");
        let person = b.term("person").unwrap();
        let entity = b.term("entity").unwrap();
        b.taxonomy.add_subclass(person, entity).unwrap();
        let jobs = b.term("Steve_Jobs").unwrap();
        let apple = b.term("Apple_Inc").unwrap();
        b.sameas.declare(jobs, apple);
        let en = b.labels.lang("en");
        b.labels.add(jobs, en, "Steve Jobs");
        b.labels.add(jobs, en, "Jobs");
        b.freeze()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_sliced_agrees_with_bytewise_reference_at_every_length() {
        // The sliced hot loop consumes 8 bytes at a time with a scalar
        // tail; sweep lengths 0..64 so every remainder size is hit.
        fn reference(data: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in data {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
        }
        let data: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(0x9E37) >> 3) as u8).collect();
        for len in 0..=data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "length {len}");
        }
    }

    #[test]
    fn streaming_crc_agrees_with_one_shot_at_every_split() {
        let data: Vec<u8> = (0..257u32).map(|i| (i.wrapping_mul(0xB5297A4D) >> 5) as u8).collect();
        let want = crc32(&data);
        for split in 0..=data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..split]);
            crc.update(&data[split..]);
            assert_eq!(crc.finish(), want, "split at {split}");
        }
        // Many tiny chunks, too.
        let mut crc = Crc32::new();
        for b in &data {
            crc.update(std::slice::from_ref(b));
        }
        assert_eq!(crc.finish(), want);
    }

    #[test]
    fn oversized_lengths_are_a_typed_error_not_a_truncation() {
        // A value longer than the length field must fail loudly at
        // write time. Scaled down via the test-only limit so the test
        // does not have to materialize 4 GiB.
        let snap = sample_snapshot();
        let err = with_len_limit(2, || snapshot_to_bytes(&snap)).unwrap_err();
        assert!(matches!(err, StoreError::TooLarge { .. }), "expected TooLarge, got {err:?}");
        // The writers thread the error out through the public API.
        let dir = std::env::temp_dir().join(format!("kbseg-big-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = with_len_limit(2, || snap.write_segment(dir.join("big.seg"))).unwrap_err();
        assert!(matches!(err, StoreError::TooLarge { .. }));
        // A write that fails part-way leaves no file behind, temp or not.
        assert!(!dir.join("big.tmp").exists() && !dir.join("big.seg").exists());
        // Every region encoder is checked, not just the dictionary: a
        // limit of 2 lets two-element tables through but still trips on
        // the first longer string/column, so sweep a range of limits
        // and require the error to name *some* region each time.
        for limit in [0, 1, 3, 8] {
            let err = with_len_limit(limit, || snapshot_to_bytes(&snap)).unwrap_err();
            let StoreError::TooLarge { len, .. } = err else {
                panic!("limit {limit}: expected TooLarge, got {err:?}")
            };
            assert!(len > limit, "reported len {len} must exceed the limit {limit}");
        }
        // Unlimited writes still succeed afterwards (the limit is
        // scoped, not sticky).
        assert!(snapshot_to_bytes(&snap).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_round_trips_byte_identically() {
        let snap = sample_snapshot();
        let bytes = snapshot_to_bytes(&snap).unwrap();
        let reopened = snapshot_from_image(&bytes).unwrap();
        assert_eq!(
            crate::ntriples::to_string(&snap).unwrap(),
            crate::ntriples::to_string(&reopened).unwrap()
        );
        assert_eq!(snap.len(), reopened.len());
        assert_eq!(snap.term_count(), reopened.term_count());
        // Retracted facts keep their slots (provenance addressing).
        assert_eq!(snap.fact(FactId(1)).unwrap().confidence, 0.0);
        assert_eq!(reopened.fact(FactId(1)).unwrap().confidence, 0.0);
        // Serialization is deterministic.
        assert_eq!(bytes, snapshot_to_bytes(&reopened).unwrap());
    }

    #[test]
    fn the_file_a_segment_streams_to_is_its_in_memory_image() {
        let dir = std::env::temp_dir().join(format!("kbseg-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = sample_snapshot();
        let written = snap.write_segment(dir.join("base.seg")).unwrap();
        let bytes = snapshot_to_bytes(&snap).unwrap();
        assert_eq!(written, bytes.len() as u64);
        assert_eq!(std::fs::read(dir.join("base.seg")).unwrap(), bytes);
        let view = SegmentedSnapshot::from_base(snap.into_shared());
        let mut d = KbBuilder::new();
        d.assert_str("Tim_Cook", "worksAt", "Apple_Inc");
        d.retract_str("Steve_Jobs", "bornIn", "SF");
        let delta = d.freeze_delta(&view);
        let written = delta.write_segment(dir.join("delta.seg")).unwrap();
        let bytes = delta_to_bytes(&delta).unwrap();
        assert_eq!(written, bytes.len() as u64);
        assert_eq!(std::fs::read(dir.join("delta.seg")).unwrap(), bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_round_trips_and_restacks() {
        let view = SegmentedSnapshot::from_base(sample_snapshot().into_shared());
        let mut d = KbBuilder::new();
        d.assert_str("Tim_Cook", "worksAt", "Apple_Inc");
        d.assert_str("Steve_Jobs", "founded", "Apple_Inc"); // shadow
        d.retract_str("Steve_Jobs", "bornIn", "SF"); // tombstone
        let delta = d.freeze_delta(&view);
        let bytes = delta_to_bytes(&delta).unwrap();
        let reopened = delta_from_bytes(&bytes).unwrap();
        assert_eq!(reopened.new_facts(), delta.new_facts());
        assert_eq!(reopened.shadowed(), delta.shadowed());
        assert_eq!(reopened.tombstones(), delta.tombstones());
        assert_eq!(reopened.net_live(), delta.net_live());
        assert_eq!(reopened.touched_predicates(), delta.touched_predicates());
        let a = view.with_delta(Arc::new(delta));
        let b = view.try_with_delta(Arc::new(reopened)).unwrap();
        assert_eq!(
            crate::ntriples::to_string(&a).unwrap(),
            crate::ntriples::to_string(&b).unwrap()
        );
        assert_eq!(bytes, delta_to_bytes(&b.deltas()[0]).unwrap());
    }

    /// `image` with `want`'s payload replaced by `payload`: the other
    /// regions copied as they are, every offset and checksum rewritten,
    /// so the new payload is all that can be wrong with it.
    fn with_region(image: &[u8], want: SegmentRegion, payload: &[u8]) -> Vec<u8> {
        let regions = region_map(image).unwrap();
        let mut w = ImageWriter::new(Cursor::new(Vec::new()), regions.len() - 1).unwrap();
        for (region, range) in &regions[1..] {
            let bytes = if *region == want { payload } else { &image[range.clone()] };
            w.region(*region, bytes.to_vec()).unwrap();
        }
        w.finish(image[..4].try_into().unwrap()).unwrap().0.into_inner()
    }

    fn refusal<T>(result: Result<T, StoreError>) -> (SegmentRegion, String) {
        match result {
            Err(StoreError::Corrupt { region, detail }) => (region, detail),
            Err(other) => panic!("untyped error {other}"),
            Ok(_) => panic!("accepted"),
        }
    }

    #[test]
    fn a_dictionary_region_is_refused_for_a_repeat_bad_utf8_or_a_short_length() {
        let dict = SegmentRegion::Dictionary;
        let terms = |ts: &[&str]| encode_terms(ts.iter(), ts.len(), dict).unwrap();
        let snap = sample_snapshot();
        let image = snapshot_to_bytes(&snap).unwrap();
        let mut base: Vec<&str> = snap.dictionary().iter().map(|(_, t)| t).collect();
        assert!(snapshot_from_image(&with_region(&image, dict, &terms(&base))).is_ok());

        // The last term repeats the first.
        let last = base.len() - 1;
        base[last] = base[0];
        let (region, detail) =
            refusal(snapshot_from_image(&with_region(&image, dict, &terms(&base))));
        assert_eq!((region, detail.as_str()), (dict, "duplicate term in dictionary"));

        // The last term is one byte that is not UTF-8.
        let mut bad = terms(&base[..last]);
        bad[..4].copy_from_slice(&(base.len() as u32).to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(0xFF);
        let (region, detail) = refusal(snapshot_from_image(&with_region(&image, dict, &bad)));
        assert_eq!((region, detail.as_str()), (dict, "invalid UTF-8 string"));

        // The last term's length runs past the region's end.
        bad.truncate(bad.len() - 5);
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.push(b'x');
        let (region, detail) = refusal(snapshot_from_image(&with_region(&image, dict, &bad)));
        assert_eq!(region, dict);
        assert!(detail.starts_with("truncated"), "{detail}");

        // Term text past the offset range (lowered here from u32::MAX).
        let (region, detail) = refusal(with_len_limit(12, || snapshot_from_image(&image)));
        assert_eq!(region, dict);
        assert!(detail.contains("past the u32 offset range"), "{detail}");

        // A delta's extension table repeats a term.
        let view = SegmentedSnapshot::from_base(snap.into_shared());
        let mut d = KbBuilder::new();
        d.assert_str("Tim_Cook", "worksAt", "Apple_Inc");
        let image = delta_to_bytes(&d.freeze_delta(&view)).unwrap();
        assert!(
            delta_from_bytes(&with_region(&image, dict, &terms(&["Tim_Cook", "worksAt"]))).is_ok()
        );
        let twice = with_region(&image, dict, &terms(&["Tim_Cook", "Tim_Cook"]));
        let (region, detail) = refusal(delta_from_bytes(&twice));
        assert_eq!((region, detail.as_str()), (dict, "duplicate extension term"));
    }

    #[test]
    fn region_map_names_every_region() {
        let bytes = snapshot_to_bytes(&sample_snapshot()).unwrap();
        let map = region_map(&bytes).unwrap();
        let regions: Vec<SegmentRegion> = map.iter().map(|(r, _)| *r).collect();
        for want in [
            SegmentRegion::Header,
            SegmentRegion::Dictionary,
            SegmentRegion::Sources,
            SegmentRegion::Facts,
            SegmentRegion::Frames,
            SegmentRegion::Taxonomy,
            SegmentRegion::SameAs,
            SegmentRegion::Labels,
        ] {
            assert!(regions.contains(&want), "{want} missing from region map");
        }
        // Ranges are non-overlapping and cover the file exactly.
        let mut ranges: Vec<_> = map.iter().map(|(_, r)| r.clone()).collect();
        ranges.sort_by_key(|r| r.start);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, bytes.len());
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        // Flipping ANY single byte of the image must surface as a typed
        // corruption (or, for a handful of semantically inert bytes such
        // as a float's low mantissa bits, at least never panic).
        let bytes = snapshot_to_bytes(&sample_snapshot()).unwrap();
        let baseline = crate::ntriples::to_string(&sample_snapshot()).unwrap();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            match snapshot_from_image(&bad) {
                Err(StoreError::Corrupt { .. }) => {}
                Err(other) => panic!("byte {i}: unexpected error kind {other:?}"),
                Ok(snap) => {
                    panic!(
                        "byte {i}: corruption accepted silently (dump changed: {})",
                        crate::ntriples::to_string(&snap).unwrap() != baseline
                    );
                }
            }
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let bytes = snapshot_to_bytes(&sample_snapshot()).unwrap();
        let err = delta_from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { region: SegmentRegion::Header, .. }));
        // One version is read; the retired v1 is as foreign as any other.
        for version in [1, 3, 99] {
            let mut wrong_version = bytes.clone();
            wrong_version[4] = version;
            let err = snapshot_from_image(&wrong_version).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { region: SegmentRegion::Header, .. }));
        }
        let err = snapshot_from_image(&[]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { region: SegmentRegion::Header, .. }));
    }

    #[test]
    fn truncated_file_is_a_header_corruption() {
        let bytes = snapshot_to_bytes(&sample_snapshot()).unwrap();
        for cut in [1, PREAMBLE_LEN - 1, PREAMBLE_LEN + 3, bytes.len() - 1] {
            let err = snapshot_from_image(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "cut at {cut}: {err:?}");
        }
    }

    #[test]
    fn file_round_trip_via_public_api() {
        let dir = std::env::temp_dir().join(format!("kbseg-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.seg");
        let snap = sample_snapshot();
        let written = snap.write_segment(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let reopened = KbSnapshot::open_segment(&path).unwrap();
        assert_eq!(
            crate::ntriples::to_string(&snap).unwrap(),
            crate::ntriples::to_string(&reopened).unwrap()
        );
        // Queries work identically on the reopened snapshot.
        let jobs = reopened.term("Steve_Jobs").unwrap();
        assert_eq!(
            snap.count_matching(&TriplePattern::with_s(jobs)),
            reopened.count_matching(&TriplePattern::with_s(jobs)),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_confidence_fact_counts_the_same_before_and_after_a_segment_file() {
        let mut b = KbBuilder::new();
        b.assert_str("a", "r", "b");
        let t = Triple::new(b.intern("a"), b.intern("b"), b.intern("c"));
        b.add_fact(Fact { triple: t, confidence: 0.0, source: SourceId::DEFAULT, span: None });
        let snap = b.freeze();
        assert_eq!((snap.len(), snap.iter().count(), snap.stats().facts), (1, 1, 1));
        let dir = std::env::temp_dir().join(format!("kbseg-zero-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.seg");
        snap.write_segment(&path).unwrap();
        let reopened = KbSnapshot::open_segment(&path).unwrap();
        assert_eq!(reopened.len(), snap.len());
        assert_eq!(reopened.iter().count(), snap.iter().count());
        assert!(reopened.fact(FactId(1)).unwrap().is_retracted());
        // What compaction's live-count invariant relies on.
        let view = SegmentedSnapshot::from_base(reopened.into_shared());
        assert_eq!(view.compact().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
