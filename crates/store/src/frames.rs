//! Compressed columnar frames for the permutation indexes.
//!
//! A [`ColFrames`] stores one `u32` column (a permutation key column,
//! a fact-id column, or an offset-bucket array) as a sequence of
//! [`FRAME_ROWS`]-row frames, each encoded independently by whichever
//! scheme is smallest for its value distribution:
//!
//! * **Const** — every value in the frame equals the frame base; no
//!   payload at all. Dominates the leading key column, where a single
//!   term's bucket spans many frames.
//! * **Packed** — frame-of-reference bitpacking: `value - base` stored
//!   in `width` bits, LSB-first. Random access is `O(1)` (one unaligned
//!   64-bit load, shift, mask), which is what keeps point lookups and
//!   binary-search probes cheap.
//! * **Varint** — delta + zigzag LEB128 relative to the previous value.
//!   Sequential decode only; chosen only when it beats bitpacking
//!   (sorted id runs with small gaps).
//!
//! Columns that back `O(1)` probes — fact ids and bucket offsets — are
//! built with [`ColFrames::from_values_packed`], which never emits a
//! varint frame, so `get` on them is always constant-time.

/// Rows per compression frame (and per decoded batch).
pub const FRAME_ROWS: usize = 1024;

/// Zero-payload frame: every row equals `base`.
const ENC_CONST: u8 = 0;
/// Frame-of-reference bitpacked payload (`width` bits per row).
const ENC_PACKED: u8 = 1;
/// Delta + zigzag LEB128 payload (sequential decode only).
const ENC_VARINT: u8 = 2;

/// Padding appended after the last payload byte so packed `get` can
/// always issue one unaligned 8-byte load.
const PAD: usize = 8;

/// A zeroed buffer for `len` bytes of read payload, with room for the
/// `PAD` bytes [`ColFrames::from_raw`] appends, so the column it becomes
/// keeps exactly its bytes and never reallocates.
pub(crate) fn payload_buf(len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len + PAD);
    buf.resize(len, 0);
    buf
}

/// What a column of `frames` frames and `payload` payload bytes keeps
/// in memory once loaded: its [`ColFrames::compressed_bytes`].
pub(crate) fn resident_bytes(frames: usize, payload: usize) -> usize {
    payload + PAD + frames * std::mem::size_of::<FrameMeta>()
}

/// Per-frame descriptor. `end` is the *cumulative* exclusive payload
/// offset: frame `f`'s payload spans `metas[f-1].end .. metas[f].end`
/// (frame 0 starts at offset 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FrameMeta {
    /// Frame-of-reference base (Const/Packed) or first value (Varint).
    pub base: u32,
    /// One of `ENC_CONST` / `ENC_PACKED` / `ENC_VARINT`.
    pub enc: u8,
    /// Bits per packed row (0 for Const and Varint frames).
    pub width: u8,
    /// Exclusive end offset of this frame's payload bytes.
    pub end: u32,
}

/// A compressed `u32` column: frame metadata plus one contiguous
/// payload buffer (padded with `PAD` zero bytes for unaligned loads).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ColFrames {
    len: usize,
    metas: Vec<FrameMeta>,
    bytes: Vec<u8>,
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

fn put_varint(mut u: u64, out: &mut Vec<u8>) {
    loop {
        let b = (u & 0x7f) as u8;
        u >>= 7;
        if u == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads one LEB128 varint from trusted (already-validated) bytes.
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut out = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        out |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return out;
        }
        shift += 7;
    }
}

/// Bounds- and overflow-checked varint read for untrusted payloads.
fn try_read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or("varint runs past the frame payload")?;
        *pos += 1;
        if shift >= 64 {
            return Err("varint wider than 64 bits".into());
        }
        out |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

/// Appends `vals - base` bitpacked at `width` bits per value, LSB-first.
fn pack_into(vals: &[u32], base: u32, width: u8, out: &mut Vec<u8>) {
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &v in vals {
        acc |= u64::from(v - base) << nbits;
        nbits += u32::from(width);
        while nbits >= 8 {
            out.push((acc & 0xff) as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push((acc & 0xff) as u8);
    }
}

impl ColFrames {
    /// Compresses a column, choosing the smallest encoding per frame
    /// (Const, Packed, or Varint).
    pub fn from_values(values: &[u32]) -> Self {
        Self::encode(values, true)
    }

    /// Compresses a column without ever using Varint frames, so `get`
    /// is `O(1)` for every row — required for the fact-id and
    /// bucket-offset columns that back binary-search probes.
    pub(crate) fn from_values_packed(values: &[u32]) -> Self {
        Self::encode(values, false)
    }

    fn encode(values: &[u32], allow_varint: bool) -> Self {
        let mut enc = ColEncoder::new(values.len(), allow_varint);
        for frame in values.chunks(FRAME_ROWS) {
            enc.push(frame);
        }
        enc.finish()
    }

    /// Validates everything frame descriptors say without their payload:
    /// the frame count against the row count, monotonic payload offsets
    /// that end exactly at `payload_len`, known encodings, and each
    /// frame's payload size against its rows and width.
    pub(crate) fn check_metas(
        len: usize,
        metas: &[FrameMeta],
        payload_len: usize,
    ) -> Result<(), String> {
        if metas.len() != len.div_ceil(FRAME_ROWS) {
            return Err(format!(
                "{} frames cannot cover {} rows (expected {})",
                metas.len(),
                len,
                len.div_ceil(FRAME_ROWS)
            ));
        }
        let mut prev_end = 0usize;
        for (f, m) in metas.iter().enumerate() {
            let end = m.end as usize;
            if end < prev_end || end > payload_len {
                return Err(format!("frame {f} payload offsets are not monotonic"));
            }
            let size = end - prev_end;
            match m.enc {
                ENC_CONST => {
                    if size != 0 || m.width != 0 {
                        return Err(format!("const frame {f} carries a payload"));
                    }
                }
                ENC_PACKED => {
                    if m.width == 0 || m.width > 32 {
                        return Err(format!("packed frame {f} has width {}", m.width));
                    }
                    let expect = (frame_rows(len, f) * m.width as usize).div_ceil(8);
                    if size != expect {
                        return Err(format!(
                            "packed frame {f} payload is {size} bytes, expected {expect}"
                        ));
                    }
                }
                ENC_VARINT => {
                    if m.width != 0 {
                        return Err(format!("varint frame {f} declares a width"));
                    }
                }
                other => return Err(format!("frame {f} has unknown encoding {other}")),
            }
            prev_end = end;
        }
        if prev_end != payload_len {
            return Err("payload extends past the last frame".into());
        }
        Ok(())
    }

    /// Reassembles a column from deserialized parts, validating every
    /// structural invariant an attacker-controlled payload could break:
    /// the descriptors ([`check_metas`](Self::check_metas)), then every
    /// varint frame's bytes. `payload` excludes the `PAD` bytes (they
    /// are not serialized).
    pub(crate) fn from_raw(
        len: usize,
        metas: Vec<FrameMeta>,
        payload: Vec<u8>,
    ) -> Result<Self, String> {
        Self::check_metas(len, &metas, payload.len())?;
        let mut prev_end = 0usize;
        for (f, m) in metas.iter().enumerate() {
            let end = m.end as usize;
            if m.enc == ENC_VARINT {
                let frame_bytes = &payload[prev_end..end];
                let mut pos = 0usize;
                let mut cur = i64::from(m.base);
                for _ in 1..frame_rows(len, f) {
                    let u = try_read_varint(frame_bytes, &mut pos)
                        .map_err(|e| format!("varint frame {f}: {e}"))?;
                    cur += unzigzag(u);
                    if cur < 0 || cur > i64::from(u32::MAX) {
                        return Err(format!("varint frame {f} decodes outside u32 range"));
                    }
                }
                if pos != frame_bytes.len() {
                    return Err(format!("varint frame {f} has trailing payload bytes"));
                }
            }
            prev_end = end;
        }
        let mut bytes = payload;
        bytes.extend_from_slice(&[0u8; PAD]);
        Ok(Self { len, metas, bytes })
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of frames.
    pub(crate) fn n_frames(&self) -> usize {
        self.metas.len()
    }

    /// Whether any frame uses the sequential-only Varint encoding.
    pub(crate) fn has_varint(&self) -> bool {
        self.metas.iter().any(|m| m.enc == ENC_VARINT)
    }

    /// Frame metadata (for serialization).
    pub(crate) fn metas(&self) -> &[FrameMeta] {
        &self.metas
    }

    /// Payload bytes, excluding the in-memory `PAD` suffix (for
    /// serialization).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[..self.bytes.len() - PAD]
    }

    /// In-memory footprint of the compressed column.
    pub fn compressed_bytes(&self) -> usize {
        self.bytes.len() + self.metas.len() * std::mem::size_of::<FrameMeta>()
    }

    fn payload_start(&self, f: usize) -> usize {
        if f == 0 {
            0
        } else {
            self.metas[f - 1].end as usize
        }
    }

    fn get_packed(&self, payload_start: usize, width: u8, idx: usize) -> u32 {
        let bitpos = idx * width as usize;
        let byte = payload_start + bitpos / 8;
        let word = u64::from_le_bytes(self.bytes[byte..byte + 8].try_into().unwrap());
        let mask = if width == 32 { u64::from(u32::MAX) } else { (1u64 << width) - 1 };
        ((word >> (bitpos % 8)) & mask) as u32
    }

    /// Random access. `O(1)` for Const/Packed frames; `O(frame prefix)`
    /// for Varint frames (columns built with
    /// `from_values_packed` never hit that
    /// case).
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(i < self.len);
        let f = i / FRAME_ROWS;
        let m = self.metas[f];
        match m.enc {
            ENC_CONST => m.base,
            ENC_PACKED => m.base + self.get_packed(self.payload_start(f), m.width, i % FRAME_ROWS),
            _ => {
                let start = self.payload_start(f);
                let mut pos = start;
                let mut cur = m.base;
                for _ in 0..(i % FRAME_ROWS) {
                    cur = (i64::from(cur) + unzigzag(read_varint(&self.bytes, &mut pos))) as u32;
                }
                cur
            }
        }
    }

    /// Decodes rows `[from, to)` into `out` (appended). Touches each
    /// overlapping frame once; the workhorse behind batch scans.
    pub fn decode_range(&self, from: usize, to: usize, out: &mut Vec<u32>) {
        debug_assert!(from <= to && to <= self.len);
        out.reserve(to - from);
        let mut i = from;
        while i < to {
            let f = i / FRAME_ROWS;
            let m = self.metas[f];
            let frame_base_row = f * FRAME_ROWS;
            let stop = to.min(frame_base_row + frame_rows(self.len, f));
            match m.enc {
                ENC_CONST => out.resize(out.len() + (stop - i), m.base),
                ENC_PACKED => {
                    let start = self.payload_start(f);
                    for r in (i - frame_base_row)..(stop - frame_base_row) {
                        out.push(m.base + self.get_packed(start, m.width, r));
                    }
                }
                _ => {
                    let mut pos = self.payload_start(f);
                    let mut cur = m.base;
                    for r in 0..(stop - frame_base_row) {
                        if r > 0 {
                            cur = (i64::from(cur) + unzigzag(read_varint(&self.bytes, &mut pos)))
                                as u32;
                        }
                        if frame_base_row + r >= i {
                            out.push(cur);
                        }
                    }
                }
            }
            i = stop;
        }
    }

    /// Fully decodes the column.
    pub fn values(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        self.decode_range(0, self.len, &mut out);
        out
    }
}

/// Builds a [`ColFrames`] one frame at a time, choosing the smallest
/// encoding per frame (Const, Packed, or — when allowed — Varint), so a
/// column can be encoded without ever being materialized whole.
pub(crate) struct ColEncoder {
    len: usize,
    metas: Vec<FrameMeta>,
    bytes: Vec<u8>,
    scratch: Vec<u8>,
    allow_varint: bool,
}

impl ColEncoder {
    /// An encoder for a column of about `rows` rows.
    pub(crate) fn new(rows: usize, allow_varint: bool) -> Self {
        Self {
            len: 0,
            metas: Vec::with_capacity(rows.div_ceil(FRAME_ROWS)),
            bytes: Vec::new(),
            scratch: Vec::new(),
            allow_varint,
        }
    }

    /// Appends the next frame: [`FRAME_ROWS`] values, fewer only for
    /// the last.
    pub(crate) fn push(&mut self, frame: &[u32]) {
        debug_assert!(!frame.is_empty() && frame.len() <= FRAME_ROWS);
        debug_assert_eq!(self.len % FRAME_ROWS, 0, "only the last frame may be short");
        self.len += frame.len();
        let bytes = &mut self.bytes;
        let (min, max) = frame.iter().fold((u32::MAX, 0u32), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        if min == max {
            self.metas.push(FrameMeta {
                base: min,
                enc: ENC_CONST,
                width: 0,
                end: bytes.len() as u32,
            });
            return;
        }
        let width = (32 - (max - min).leading_zeros()) as u8;
        let packed_size = (frame.len() * width as usize).div_ceil(8);
        if self.allow_varint {
            let scratch = &mut self.scratch;
            scratch.clear();
            for w in frame.windows(2) {
                put_varint(zigzag(i64::from(w[1]) - i64::from(w[0])), scratch);
                if scratch.len() >= packed_size {
                    break;
                }
            }
            if scratch.len() < packed_size {
                bytes.extend_from_slice(scratch);
                self.metas.push(FrameMeta {
                    base: frame[0],
                    enc: ENC_VARINT,
                    width: 0,
                    end: bytes.len() as u32,
                });
                return;
            }
        }
        pack_into(frame, min, width, bytes);
        self.metas.push(FrameMeta { base: min, enc: ENC_PACKED, width, end: bytes.len() as u32 });
    }

    /// The encoded column, its payload in a buffer exactly its size:
    /// what [`ColFrames::compressed_bytes`] reports is what it holds.
    pub(crate) fn finish(mut self) -> ColFrames {
        self.bytes.extend_from_slice(&[0u8; PAD]);
        self.bytes.shrink_to_fit();
        ColFrames { len: self.len, metas: self.metas, bytes: self.bytes }
    }
}

/// Rows in frame `f` of a `len`-row column (the last frame may be
/// short).
fn frame_rows(len: usize, f: usize) -> usize {
    FRAME_ROWS.min(len - f * FRAME_ROWS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u32]) {
        for col in [ColFrames::from_values(values), ColFrames::from_values_packed(values)] {
            assert_eq!(col.values(), values, "full decode");
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(col.get(i), v, "get({i})");
            }
            // from_raw over the serialized parts reproduces the column.
            let back = ColFrames::from_raw(col.len(), col.metas().to_vec(), col.payload().to_vec())
                .expect("from_raw");
            assert_eq!(back, col);
        }
    }

    #[test]
    fn roundtrips_every_encoding() {
        roundtrip(&[]);
        roundtrip(&[7]);
        roundtrip(&vec![42; 5000]); // const frames
        roundtrip(&(0..5000).collect::<Vec<_>>()); // tiny deltas → varint
        let jumpy: Vec<u32> = (0..5000).map(|i| (i as u32).wrapping_mul(2654435761) >> 3).collect();
        roundtrip(&jumpy); // wide range → packed
        roundtrip(&[0, u32::MAX, 0, u32::MAX, 7]); // width-32 frames
        let mixed: Vec<u32> = (0..4000)
            .map(|i| {
                if i < 1024 {
                    9
                } else if i < 2048 {
                    i as u32
                } else {
                    i as u32 * 977
                }
            })
            .collect();
        roundtrip(&mixed);
    }

    #[test]
    fn packed_only_constructor_never_emits_varint() {
        let sorted: Vec<u32> = (0..10_000).collect();
        let packed = ColFrames::from_values_packed(&sorted);
        assert!(!packed.has_varint());
        let free = ColFrames::from_values(&sorted);
        assert!(free.has_varint(), "sorted small-gap data should pick varint when allowed");
        assert!(free.compressed_bytes() < packed.compressed_bytes());
    }

    #[test]
    fn sorted_runs_compress_well_below_raw() {
        // A plausible permutation key column: long sorted runs.
        let vals: Vec<u32> = (0..100_000u32).map(|i| i / 7).collect();
        let col = ColFrames::from_values(&vals);
        let raw = vals.len() * 4;
        assert!(
            col.compressed_bytes() * 3 < raw,
            "expected ≥3× compression, got {} of {raw}",
            col.compressed_bytes()
        );
    }

    #[test]
    fn decode_range_matches_get_everywhere() {
        let vals: Vec<u32> = (0..3000u32).map(|i| i.wrapping_mul(2654435761) % 10_000).collect();
        let col = ColFrames::from_values(&vals);
        for (from, to) in [(0, 0), (0, 1), (5, 2100), (1020, 1030), (1024, 2048), (2999, 3000)] {
            let mut out = Vec::new();
            col.decode_range(from, to, &mut out);
            assert_eq!(out, &vals[from..to], "range {from}..{to}");
        }
    }

    #[test]
    fn from_raw_rejects_structural_damage() {
        let vals: Vec<u32> = (0..2500).collect();
        let col = ColFrames::from_values(&vals);
        let (len, metas, payload) = (col.len(), col.metas().to_vec(), col.payload().to_vec());
        // Wrong frame count.
        assert!(ColFrames::from_raw(len + FRAME_ROWS, metas.clone(), payload.clone()).is_err());
        // Unknown encoding.
        let mut bad = metas.clone();
        bad[0].enc = 9;
        assert!(ColFrames::from_raw(len, bad, payload.clone()).is_err());
        // Truncated payload.
        assert!(
            ColFrames::from_raw(len, metas.clone(), payload[..payload.len() - 1].to_vec()).is_err()
        );
        // Non-monotonic offsets.
        let mut bad = metas.clone();
        if bad.len() > 1 {
            bad[1].end = 0;
            assert!(ColFrames::from_raw(len, bad, payload.clone()).is_err());
        }
        // Over-wide packed frame.
        let packed = ColFrames::from_values_packed(&vals);
        let mut bad = packed.metas().to_vec();
        bad[0].width = 33;
        assert!(ColFrames::from_raw(packed.len(), bad, packed.payload().to_vec()).is_err());
        let ok = ColFrames::from_raw(len, metas, payload).unwrap();
        assert_eq!(ok.values(), vals);
    }
}
