//! [`SourceId`]: the provenance-source identifier every [`Fact`]
//! carries. The mutable store itself is [`KbBuilder`](crate::KbBuilder)
//! — the one write-side type, which also reads through
//! [`KbRead`](crate::KbRead) on lazily frozen indexes.
//!
//! [`Fact`]: crate::Fact

use std::fmt;

/// Identifier of a registered provenance source (a corpus, an extractor,
/// a manual assertion batch, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceId(pub u32);

impl SourceId {
    /// The pre-registered source `"asserted"` present in every store.
    pub const DEFAULT: SourceId = SourceId(0);
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "src{}", self.0)
    }
}
