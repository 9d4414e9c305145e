//! Triple patterns: the unit of querying.
//!
//! A [`TriplePattern`] fixes any subset of `{s, p, o}`; the store picks
//! the permutation index whose prefix covers the bound components and
//! answers the pattern with a single range scan.

use crate::{TermId, Triple};

/// A query pattern with optionally bound subject, predicate and object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriplePattern {
    /// Required subject, if bound.
    pub s: Option<TermId>,
    /// Required predicate, if bound.
    pub p: Option<TermId>,
    /// Required object, if bound.
    pub o: Option<TermId>,
}

/// Which permutation index answers a pattern with a contiguous range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    /// `(s, p, o)` index; used for bound-s and bound-sp patterns.
    Spo,
    /// `(p, o, s)` index; used for bound-p and bound-po patterns.
    Pos,
    /// `(o, s, p)` index; used for bound-o and bound-os patterns.
    Osp,
}

impl TriplePattern {
    /// Matches every triple.
    pub fn any() -> Self {
        Self::default()
    }

    /// Pattern binding only the subject.
    pub fn with_s(s: TermId) -> Self {
        Self { s: Some(s), ..Self::default() }
    }

    /// Pattern binding only the predicate.
    pub fn with_p(p: TermId) -> Self {
        Self { p: Some(p), ..Self::default() }
    }

    /// Pattern binding only the object.
    pub fn with_o(o: TermId) -> Self {
        Self { o: Some(o), ..Self::default() }
    }

    /// Pattern binding subject and predicate.
    pub fn with_sp(s: TermId, p: TermId) -> Self {
        Self { s: Some(s), p: Some(p), o: None }
    }

    /// Pattern binding predicate and object.
    pub fn with_po(p: TermId, o: TermId) -> Self {
        Self { s: None, p: Some(p), o: Some(o) }
    }

    /// Pattern binding subject and object.
    pub fn with_so(s: TermId, o: TermId) -> Self {
        Self { s: Some(s), p: None, o: Some(o) }
    }

    /// Fully bound pattern (existence check).
    pub fn exact(t: Triple) -> Self {
        Self { s: Some(t.s), p: Some(t.p), o: Some(t.o) }
    }

    /// Number of bound components.
    pub(crate) fn bound_count(&self) -> u8 {
        u8::from(self.s.is_some()) + u8::from(self.p.is_some()) + u8::from(self.o.is_some())
    }

    /// Whether `t` satisfies every bound component.
    pub fn matches(&self, t: &Triple) -> bool {
        self.s.is_none_or(|s| s == t.s)
            && self.p.is_none_or(|p| p == t.p)
            && self.o.is_none_or(|o| o == t.o)
    }

    /// Chooses the permutation index whose key prefix covers the bound
    /// components, so the pattern becomes one contiguous range.
    ///
    /// The only pattern no single index covers contiguously is `s?o`
    /// (subject+object bound, predicate free); for it we scan the OSP
    /// range of `o` and post-filter on `s` — OSP's second component *is*
    /// `s`, so that range is still contiguous.
    pub fn choose_index(&self) -> IndexChoice {
        match (self.s.is_some(), self.p.is_some(), self.o.is_some()) {
            // Fully bound or s-prefix patterns.
            (true, true, true) | (true, true, false) | (true, false, false) => IndexChoice::Spo,
            (false, true, _) => IndexChoice::Pos,
            (false, false, true) => IndexChoice::Osp,
            // s and o bound: OSP gives the (o, s, *) contiguous range.
            (true, false, true) => IndexChoice::Osp,
            (false, false, false) => IndexChoice::Spo,
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
    fn matches_only_bound_components() {
        let p = TriplePattern::with_p(TermId(5));
        assert!(p.matches(&t(1, 5, 9)));
        assert!(!p.matches(&t(1, 6, 9)));
        assert!(TriplePattern::any().matches(&t(0, 0, 0)));
    }

    #[test]
    fn index_choice_covers_every_binding_shape() {
        use IndexChoice::*;
        assert_eq!(TriplePattern::any().choose_index(), Spo);
        assert_eq!(TriplePattern::with_s(TermId(1)).choose_index(), Spo);
        assert_eq!(TriplePattern::with_p(TermId(1)).choose_index(), Pos);
        assert_eq!(TriplePattern::with_o(TermId(1)).choose_index(), Osp);
        assert_eq!(TriplePattern::with_sp(TermId(1), TermId(2)).choose_index(), Spo);
        assert_eq!(TriplePattern::with_po(TermId(1), TermId(2)).choose_index(), Pos);
        assert_eq!(TriplePattern::with_so(TermId(1), TermId(2)).choose_index(), Osp);
        assert_eq!(TriplePattern::exact(t(1, 2, 3)).choose_index(), Spo);
    }

    #[test]
    fn bound_count_counts() {
        assert_eq!(TriplePattern::any().bound_count(), 0);
        assert_eq!(TriplePattern::with_so(TermId(0), TermId(1)).bound_count(), 2);
        assert_eq!(TriplePattern::exact(t(1, 2, 3)).bound_count(), 3);
    }
}
