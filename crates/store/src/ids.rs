//! Dense integer identifiers used throughout the store.
//!
//! All strings — entity names, class names, relation names and literals —
//! are interned into a [`TermId`] by the
//! [`Dictionary`](crate::Dictionary). Facts are addressed by [`FactId`].
//! Both are `u32` newtypes: a KB of up to four billion terms/facts is far
//! beyond the laptop scale this library targets, and 4-byte ids keep the
//! permutation indexes compact (12 bytes per indexed triple). Every
//! [`Fact`](crate::Fact) also names the provenance source it came from
//! by [`SourceId`].

use std::fmt;

/// Identifier of an interned term (entity, class, relation or literal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index into the dictionary's term table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a fact stored in a [`KbBuilder`](crate::KbBuilder).
///
/// Fact ids are assigned densely in insertion order and are stable for the
/// lifetime of the store (facts are never physically removed; retraction is
/// modelled by setting confidence to zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FactId(pub u32);

impl FactId {
    /// The raw index into the fact table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FactId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn term_id_ordering_follows_raw_value() {
        assert!(TermId(1) < TermId(2));
        assert_eq!(TermId(7).index(), 7);
    }

    #[test]
    fn display_forms_are_distinct() {
        assert_eq!(TermId(3).to_string(), "t3");
        assert_eq!(FactId(3).to_string(), "f3");
    }
}
