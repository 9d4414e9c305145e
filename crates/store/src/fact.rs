//! Triples and facts.
//!
//! A [`Triple`] is the bare subject–predicate–object statement; a
//! [`Fact`] wraps a triple with the metadata that big-data KB
//! construction needs to track: extraction confidence, provenance
//! source and temporal scope.

use crate::time::TimeSpan;
use crate::SourceId;
use crate::TermId;

/// A bare SPO statement over interned terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// Subject term.
    pub s: TermId,
    /// Predicate (relation) term.
    pub p: TermId,
    /// Object term (entity or literal).
    pub o: TermId,
}

impl Triple {
    /// Convenience constructor.
    pub fn new(s: TermId, p: TermId, o: TermId) -> Self {
        Self { s, p, o }
    }

    /// The triple reordered as `(p, o, s)` — the POS index key.
    #[inline]
    pub fn pos_key(&self) -> (TermId, TermId, TermId) {
        (self.p, self.o, self.s)
    }

    /// The triple reordered as `(o, s, p)` — the OSP index key.
    #[inline]
    pub fn osp_key(&self) -> (TermId, TermId, TermId) {
        (self.o, self.s, self.p)
    }

    /// The natural `(s, p, o)` key.
    #[inline]
    pub fn spo_key(&self) -> (TermId, TermId, TermId) {
        (self.s, self.p, self.o)
    }
}

/// A triple plus the provenance/confidence/temporal metadata attached by
/// the harvesting pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    /// The statement itself.
    pub triple: Triple,
    /// Extraction confidence in `[0, 1]`. Manually asserted facts use 1.0.
    /// A confidence of exactly 0.0 marks a retracted fact.
    pub confidence: f64,
    /// Which registered source produced this fact.
    pub source: SourceId,
    /// Validity interval, if the harvester inferred one.
    pub span: Option<TimeSpan>,
}

impl Fact {
    /// A fully-confident fact with default provenance and no temporal
    /// scope.
    pub fn asserted(triple: Triple) -> Self {
        Self { triple, confidence: 1.0, source: SourceId::DEFAULT, span: None }
    }

    /// Whether the fact has been retracted (confidence forced to zero).
    pub(crate) fn is_retracted(&self) -> bool {
        self.confidence == 0.0
    }

    /// The write contract's one evidence merge: what this stored entry
    /// becomes when `incoming` — live evidence for the same triple —
    /// arrives. A retracted entry is forgotten and `incoming` starts
    /// fresh; a live one combines confidence by noisy-or
    /// (`1 - (1-a)(1-b)`, the standard evidence combination for
    /// independent extractors) and keeps its span if it knew one and
    /// its source, the earliest.
    pub(crate) fn merged(&self, incoming: Fact) -> Fact {
        if self.is_retracted() {
            return incoming;
        }
        Fact {
            confidence: 1.0 - (1.0 - self.confidence) * (1.0 - incoming.confidence),
            span: self.span.or(incoming.span),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(TermId(s), TermId(p), TermId(o))
    }

    #[test]
    fn permutation_keys_reorder_components() {
        let tr = t(1, 2, 3);
        assert_eq!(tr.spo_key(), (TermId(1), TermId(2), TermId(3)));
        assert_eq!(tr.pos_key(), (TermId(2), TermId(3), TermId(1)));
        assert_eq!(tr.osp_key(), (TermId(3), TermId(1), TermId(2)));
    }

    #[test]
    fn asserted_facts_are_fully_confident() {
        let f = Fact::asserted(t(1, 2, 3));
        assert_eq!(f.confidence, 1.0);
        assert!(!f.is_retracted());
        assert!(f.span.is_none());
    }

    #[test]
    fn triple_ordering_is_lexicographic_spo() {
        assert!(t(1, 9, 9) < t(2, 0, 0));
        assert!(t(1, 1, 1) < t(1, 1, 2));
    }
}
