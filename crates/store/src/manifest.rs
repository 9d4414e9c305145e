//! The store manifest: the single small file that names which segment
//! files constitute the current KB — base segment, sealed delta stack,
//! and the active WAL — plus the generation and the highest WAL
//! sequence number already sealed into delta files.
//!
//! The manifest is the commit point for every multi-file operation.
//! It is only ever replaced atomically (write temp → fsync → rename →
//! fsync parent dir), so a reader either sees the old complete file
//! list or the new one, never a half-written mixture. Any crash window
//! between writing new segment files and renaming the manifest leaves
//! extra *unreferenced* files on disk, which recovery garbage-collects;
//! it never leaves the manifest pointing at files that don't exist.
//!
//! Format: a short line-oriented text file, CRC-sealed by its last line
//! so truncation or editing is detected, not misread:
//!
//! ```text
//! kbstore-manifest v1
//! generation 3
//! applied_seq 12
//! base base-3.seg
//! delta delta-3-11.seg
//! delta delta-3-12.seg
//! wal wal-3.log
//! compacted_from 2
//! crc 0x1A2B3C4D
//! ```

use std::path::Path;

use crate::error::SegmentRegion;
use crate::segment_io::{crc32, write_file_atomic};
use crate::StoreError;

/// Name of the manifest file inside a store directory.
pub(crate) const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "kbstore-manifest v1";

fn corrupt(detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt { region: SegmentRegion::Manifest, detail: detail.into() }
}

/// The durable description of a store: which files hold the KB and how
/// far the WAL has been sealed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Compaction generation; bumped each time a new base is written.
    pub generation: u64,
    /// Highest WAL sequence number whose delta is sealed into a
    /// standalone `delta-*.seg` file. WAL records with `seq <=
    /// applied_seq` are duplicates of sealed files and are skipped on
    /// replay — this is what makes seal/crash windows idempotent.
    pub applied_seq: u64,
    /// File name (relative to the store directory) of the base segment.
    pub base: String,
    /// Sealed delta file names, oldest first.
    pub deltas: Vec<String>,
    /// File name of the active WAL.
    pub wal: String,
    /// Generation this store was compacted from, if any (lineage).
    pub compacted_from: Option<u64>,
}

impl Manifest {
    /// Serializes to the CRC-sealed text form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = String::new();
        body.push_str(MANIFEST_HEADER);
        body.push('\n');
        body.push_str(&format!("generation {}\n", self.generation));
        body.push_str(&format!("applied_seq {}\n", self.applied_seq));
        body.push_str(&format!("base {}\n", self.base));
        for d in &self.deltas {
            body.push_str(&format!("delta {d}\n"));
        }
        body.push_str(&format!("wal {}\n", self.wal));
        if let Some(from) = self.compacted_from {
            body.push_str(&format!("compacted_from {from}\n"));
        }
        let crc = crc32(body.as_bytes());
        body.push_str(&format!("crc 0x{crc:08X}\n"));
        body.into_bytes()
    }

    /// Parses and CRC-verifies a manifest. Every malformed shape maps
    /// to a typed [`StoreError::Corrupt`] in the `manifest` region.
    pub(crate) fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let text = std::str::from_utf8(bytes).map_err(|_| corrupt("manifest is not UTF-8"))?;
        // Split off the trailing `crc 0x...` line and verify it covers
        // everything before it.
        let trimmed = text.strip_suffix('\n').ok_or_else(|| corrupt("missing final newline"))?;
        let (body_end, crc_line) = match trimmed.rfind('\n') {
            Some(i) => (i + 1, &trimmed[i + 1..]),
            None => return Err(corrupt("manifest has no checksum line")),
        };
        let stated = crc_line
            .strip_prefix("crc 0x")
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or_else(|| corrupt("malformed checksum line"))?;
        let body = &text[..body_end];
        let actual = crc32(body.as_bytes());
        if stated != actual {
            return Err(corrupt(format!(
                "manifest checksum mismatch (stated 0x{stated:08X}, computed 0x{actual:08X})"
            )));
        }

        let mut lines = body.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(corrupt("unrecognized manifest header"));
        }
        let mut generation = None;
        let mut applied_seq = None;
        let mut base = None;
        let mut deltas = Vec::new();
        let mut wal = None;
        let mut compacted_from = None;
        for line in lines {
            let (key, value) = line
                .split_once(' ')
                .ok_or_else(|| corrupt(format!("malformed manifest line {line:?}")))?;
            match key {
                "generation" => {
                    generation = Some(value.parse().map_err(|_| corrupt("bad generation number"))?);
                }
                "applied_seq" => {
                    applied_seq =
                        Some(value.parse().map_err(|_| corrupt("bad applied_seq number"))?);
                }
                "base" => base = Some(value.to_string()),
                "delta" => deltas.push(value.to_string()),
                "wal" => wal = Some(value.to_string()),
                "compacted_from" => {
                    compacted_from =
                        Some(value.parse().map_err(|_| corrupt("bad compacted_from number"))?);
                }
                other => return Err(corrupt(format!("unknown manifest key {other:?}"))),
            }
        }
        Ok(Self {
            generation: generation.ok_or_else(|| corrupt("manifest missing generation"))?,
            applied_seq: applied_seq.ok_or_else(|| corrupt("manifest missing applied_seq"))?,
            base: base.ok_or_else(|| corrupt("manifest missing base segment"))?,
            deltas,
            wal: wal.ok_or_else(|| corrupt("manifest missing wal"))?,
            compacted_from,
        })
    }

    /// Reads and verifies the manifest inside `dir`.
    pub fn load(dir: &Path) -> Result<Self, StoreError> {
        let bytes = std::fs::read(dir.join(MANIFEST_NAME))?;
        Self::from_bytes(&bytes)
    }

    /// Atomically replaces the manifest inside `dir`: the rename is the
    /// commit point for whatever multi-file operation preceded it.
    pub fn store(&self, dir: &Path, fsync: bool) -> Result<(), StoreError> {
        write_file_atomic(&dir.join(MANIFEST_NAME), &self.to_bytes(), fsync)
    }

    /// Every file name the manifest references (used by recovery to
    /// garbage-collect unreferenced leftovers from crashed operations).
    pub(crate) fn referenced_files(&self) -> Vec<&str> {
        let mut out = vec![self.base.as_str(), self.wal.as_str()];
        out.extend(self.deltas.iter().map(String::as_str));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            generation: 3,
            applied_seq: 12,
            base: "base-3.seg".into(),
            deltas: vec!["delta-3-11.seg".into(), "delta-3-12.seg".into()],
            wal: "wal-3.log".into(),
            compacted_from: Some(2),
        }
    }

    #[test]
    fn round_trips() {
        let m = sample();
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);

        let minimal = Manifest {
            generation: 0,
            applied_seq: 0,
            base: "base-0.seg".into(),
            deltas: vec![],
            wal: "wal-0.log".into(),
            compacted_from: None,
        };
        assert_eq!(Manifest::from_bytes(&minimal.to_bytes()).unwrap(), minimal);
    }

    #[test]
    fn every_flipped_byte_is_caught() {
        let bytes = sample().to_bytes();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0xA5;
            let result = Manifest::from_bytes(&bad);
            assert!(
                matches!(result, Err(StoreError::Corrupt { region: SegmentRegion::Manifest, .. })),
                "flip at byte {i} was not caught: {result:?}"
            );
        }
    }

    #[test]
    fn truncation_is_caught() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Manifest::from_bytes(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes was not caught"
            );
        }
    }

    #[test]
    fn referenced_files_lists_everything() {
        let m = sample();
        let mut files = m.referenced_files();
        files.sort_unstable();
        assert_eq!(files, vec!["base-3.seg", "delta-3-11.seg", "delta-3-12.seg", "wal-3.log"]);
    }
}
