//! Error type shared by all store operations.

use std::error::Error;
use std::fmt;

use crate::TermId;

/// Which part of a durable store artifact a corruption was detected in.
///
/// Carried by [`StoreError::Corrupt`] so callers (and tests) can tell a
/// damaged dictionary block from a damaged WAL record without string
/// matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentRegion {
    /// File magic, format version, or the checksummed region table.
    Header,
    /// The term dictionary block.
    Dictionary,
    /// The provenance source table.
    Sources,
    /// The fact table (triples + confidence/source/span).
    Facts,
    /// The per-fact kind column of a delta segment.
    Kinds,
    /// The compressed-frame column block (permutation columns and
    /// offset buckets).
    Frames,
    /// The taxonomy (subclass DAG) block.
    Taxonomy,
    /// The sameAs equivalence-class block.
    SameAs,
    /// The multilingual label block.
    Labels,
    /// Delta stacking metadata (first term/source ids).
    DeltaMeta,
    /// The write-ahead log's file header.
    WalHeader,
    /// A CRC-framed record inside the write-ahead log.
    WalRecord,
    /// The manifest file tracking the base+delta stack.
    Manifest,
}

impl fmt::Display for SegmentRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SegmentRegion::Header => "header",
            SegmentRegion::Dictionary => "dictionary",
            SegmentRegion::Sources => "sources",
            SegmentRegion::Facts => "facts",
            SegmentRegion::Kinds => "kinds",
            SegmentRegion::Frames => "frames",
            SegmentRegion::Taxonomy => "taxonomy",
            SegmentRegion::SameAs => "sameAs",
            SegmentRegion::Labels => "labels",
            SegmentRegion::DeltaMeta => "delta metadata",
            SegmentRegion::WalHeader => "WAL header",
            SegmentRegion::WalRecord => "WAL record",
            SegmentRegion::Manifest => "manifest",
        };
        f.write_str(name)
    }
}

/// Errors raised by [`KbBuilder`](crate::KbBuilder) and its
/// sub-stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A `TermId` was used that this dictionary never issued.
    UnknownTerm(TermId),
    /// A durable store artifact failed checksum or structural
    /// validation. Never a panic, never a silently wrong KB: readers
    /// report the damaged region and refuse the data.
    Corrupt {
        /// Which region of the artifact failed validation.
        region: SegmentRegion,
        /// Human-readable description of the failure.
        detail: String,
    },
    /// Adding the subclass edge would create a cycle in the taxonomy.
    TaxonomyCycle {
        /// The would-be subclass.
        sub: TermId,
        /// The would-be superclass.
        sup: TermId,
    },
    /// A temporal scope with `end < begin` was supplied.
    InvalidTimeSpan,
    /// A serialized KB line could not be parsed.
    Parse {
        /// 1-based line number in the input.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A value being serialized is too large for its on-disk length
    /// field. Raised by the persistence writers instead of silently
    /// truncating a `len() as u32` cast — a >4 GiB string, column or
    /// payload must fail loudly at write time, not at reopen.
    TooLarge {
        /// Which region's writer hit the oversized value.
        region: SegmentRegion,
        /// The length that did not fit the field.
        len: usize,
    },
    /// An I/O error occurred while reading or writing a serialized KB.
    ///
    /// `std::io::Error` is neither `Clone` nor `PartialEq`, so only its
    /// display string is retained.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownTerm(t) => write!(f, "unknown term id {t}"),
            StoreError::Corrupt { region, detail } => {
                write!(f, "corrupt segment data in {region}: {detail}")
            }
            StoreError::TaxonomyCycle { sub, sup } => {
                write!(f, "subclass edge {sub} -> {sup} would create a cycle")
            }
            StoreError::InvalidTimeSpan => write!(f, "time span ends before it begins"),
            StoreError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            StoreError::TooLarge { region, len } => {
                write!(f, "{region} value of {len} bytes exceeds the on-disk length field")
            }
            StoreError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl Error for StoreError {}

/// A [`StoreError::Corrupt`] in `region`.
pub(crate) fn corrupt(region: SegmentRegion, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt { region, detail: detail.into() }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_offending_ids() {
        let e = StoreError::TaxonomyCycle { sub: TermId(1), sup: TermId(2) };
        let s = e.to_string();
        assert!(s.contains("t1") && s.contains("t2"));
    }

    #[test]
    fn io_errors_convert() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: StoreError = io.into();
        assert!(matches!(e, StoreError::Io(_)));
    }
}
