//! `owl:sameAs` management: equivalence classes of entity terms.
//!
//! Interlinked KBs (the Web of Linked Data, tutorial §1 and §4) require
//! maintaining large `sameAs` equivalence relations. We use a union-find
//! with path compression and union by rank, keyed by [`TermId`], with a
//! deterministic canonical representative (the smallest `TermId` in each
//! class) so that canonicalization is stable across runs.

use std::collections::HashMap;

use crate::TermId;

/// Union-find over entity terms with stable canonical representatives.
#[derive(Debug, Default, Clone)]
pub struct SameAsStore {
    parent: HashMap<TermId, TermId>,
    rank: HashMap<TermId, u32>,
    /// minimum TermId in each root's class — the canonical representative
    min_of_root: HashMap<TermId, TermId>,
}

impl SameAsStore {
    /// Creates an empty store (every term is its own class).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `a sameAs b`, merging their classes. Returns whether the
    /// two were previously in different classes.
    pub fn declare(&mut self, a: TermId, b: TermId) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        let rank_a = *self.rank.get(&ra).unwrap_or(&0);
        let rank_b = *self.rank.get(&rb).unwrap_or(&0);
        let (winner, loser) = if rank_a >= rank_b { (ra, rb) } else { (rb, ra) };
        self.parent.insert(loser, winner);
        if rank_a == rank_b {
            *self.rank.entry(winner).or_insert(0) += 1;
        }
        let min_w = *self.min_of_root.get(&winner).unwrap_or(&winner);
        let min_l = *self.min_of_root.get(&loser).unwrap_or(&loser);
        self.min_of_root.insert(winner, min_w.min(min_l));
        true
    }

    /// Root of `t`'s class (with path compression).
    fn find(&mut self, t: TermId) -> TermId {
        let mut root = t;
        while let Some(&p) = self.parent.get(&root) {
            root = p;
        }
        // Path compression pass.
        let mut cur = t;
        while let Some(&p) = self.parent.get(&cur) {
            if p == root {
                break;
            }
            self.parent.insert(cur, root);
            cur = p;
        }
        root
    }

    /// Root of `t`'s class without mutation (no path compression).
    fn find_readonly(&self, t: TermId) -> TermId {
        let mut root = t;
        while let Some(&p) = self.parent.get(&root) {
            root = p;
        }
        root
    }

    /// The canonical representative of `t`'s class: the smallest
    /// [`TermId`] ever merged into it (deterministic across insertion
    /// orders). A term never declared equivalent to anything is its own
    /// canon.
    pub fn canon(&self, t: TermId) -> TermId {
        let root = self.find_readonly(t);
        *self.min_of_root.get(&root).unwrap_or(&root)
    }

    /// Whether the two terms are known to denote the same entity.
    pub fn same(&self, a: TermId, b: TermId) -> bool {
        self.find_readonly(a) == self.find_readonly(b)
    }

    /// Number of non-singleton equivalence classes. O(n) in the number of
    /// terms ever touched.
    pub fn class_count(&self) -> usize {
        self.classes().len()
    }

    /// Materializes all non-singleton equivalence classes, each sorted,
    /// ordered by their canonical representative.
    pub fn classes(&self) -> Vec<Vec<TermId>> {
        let mut by_root: HashMap<TermId, Vec<TermId>> = HashMap::new();
        let mut members: Vec<TermId> = self.parent.keys().copied().collect();
        members.extend(self.rank.keys().copied());
        members.extend(self.min_of_root.keys().copied());
        members.sort_unstable();
        members.dedup();
        for m in members {
            by_root.entry(self.find_readonly(m)).or_default().push(m);
        }
        let mut out: Vec<Vec<TermId>> = by_root
            .into_values()
            .filter(|v| v.len() > 1)
            .map(|mut v| {
                v.sort_unstable();
                v
            })
            .collect();
        out.sort_by_key(|v| v[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn fresh_terms_are_their_own_canon() {
        let s = SameAsStore::new();
        assert_eq!(s.canon(t(5)), t(5));
        assert!(!s.same(t(1), t(2)));
    }

    #[test]
    fn declare_merges_and_canon_is_minimum() {
        let mut s = SameAsStore::new();
        assert!(s.declare(t(5), t(3)));
        assert!(s.same(t(5), t(3)));
        assert_eq!(s.canon(t(5)), t(3));
        assert_eq!(s.canon(t(3)), t(3));
    }

    #[test]
    fn transitivity_through_chains() {
        let mut s = SameAsStore::new();
        s.declare(t(1), t(2));
        s.declare(t(2), t(3));
        s.declare(t(10), t(11));
        assert!(s.same(t(1), t(3)));
        assert!(!s.same(t(1), t(10)));
        s.declare(t(3), t(10));
        assert!(s.same(t(1), t(11)));
        assert_eq!(s.canon(t(11)), t(1));
    }

    #[test]
    fn redundant_declares_return_false() {
        let mut s = SameAsStore::new();
        assert!(s.declare(t(1), t(2)));
        assert!(!s.declare(t(2), t(1)));
        assert!(!s.declare(t(1), t(1)));
        assert_eq!(s.class_count(), 1);
    }

    #[test]
    fn canon_is_order_independent() {
        let mut a = SameAsStore::new();
        a.declare(t(9), t(4));
        a.declare(t(4), t(7));
        let mut b = SameAsStore::new();
        b.declare(t(7), t(9));
        b.declare(t(9), t(4));
        for i in [4, 7, 9] {
            assert_eq!(a.canon(t(i)), t(4));
            assert_eq!(b.canon(t(i)), t(4));
        }
    }

    #[test]
    fn classes_materializes_sorted_groups() {
        let mut s = SameAsStore::new();
        s.declare(t(5), t(2));
        s.declare(t(8), t(9));
        s.declare(t(2), t(1));
        let classes = s.classes();
        assert_eq!(classes, vec![vec![t(1), t(2), t(5)], vec![t(8), t(9)]]);
    }
}
