//! Entity-entity semantic relatedness over the KB graph: the
//! Milne-Witten (Wikipedia-link-based) measure, computed from shared
//! neighbors.

use std::collections::{HashMap, HashSet};

use kb_store::{KbRead, TermId};

/// Precomputed neighbor sets for fast pairwise relatedness.
#[derive(Debug, Default, Clone)]
pub struct CoherenceIndex {
    neighbors: HashMap<TermId, HashSet<TermId>>,
    /// Total entities with any neighbors (the "N" of Milne-Witten).
    universe: usize,
}

impl CoherenceIndex {
    /// Builds the index for the given entities from the KB graph (any
    /// [`KbRead`] view).
    pub fn build<K: KbRead + ?Sized>(kb: &K, entities: impl IntoIterator<Item = TermId>) -> Self {
        let mut neighbors = HashMap::new();
        let mut nodes: HashSet<TermId> = HashSet::new();
        for e in entities {
            let n: HashSet<TermId> = kb.neighbors(e).into_iter().collect();
            nodes.insert(e);
            nodes.extend(n.iter().copied());
            neighbors.insert(e, n);
        }
        // The "N" of Milne-Witten: all distinct graph nodes seen, so the
        // measure does not degenerate on small indexes.
        let universe = nodes.len().max(2);
        Self { neighbors, universe }
    }

    /// Milne-Witten relatedness in `[0, 1]`:
    /// `1 − (log max(|A|,|B|) − log |A∩B|) / (log N − log min(|A|,|B|))`,
    /// clamped. Zero when either entity is unknown or they share no
    /// neighbors; 1 for identical entities.
    pub fn relatedness(&self, a: TermId, b: TermId) -> f64 {
        if a == b {
            return 1.0;
        }
        let (Some(na), Some(nb)) = (self.neighbors.get(&a), self.neighbors.get(&b)) else {
            return 0.0;
        };
        if na.is_empty() || nb.is_empty() {
            return 0.0;
        }
        let inter = na.intersection(nb).count();
        if inter == 0 {
            return 0.0;
        }
        let big = na.len().max(nb.len()) as f64;
        let small = na.len().min(nb.len()) as f64;
        let n = self.universe as f64;
        let denom = n.ln() - small.ln();
        if denom <= 0.0 {
            return 1.0;
        }
        let mw = 1.0 - (big.ln() - (inter as f64).ln()) / denom;
        mw.clamp(0.0, 1.0)
    }

    /// Number of indexed entities.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbBuilder;

    /// Builds a KB where e1 and e2 share two neighbors, e3 is isolated.
    fn setup() -> (KbBuilder, TermId, TermId, TermId) {
        let mut kb = KbBuilder::new();
        let e1 = kb.intern("E1");
        let e2 = kb.intern("E2");
        let e3 = kb.intern("E3");
        let x = kb.intern("X");
        let y = kb.intern("Y");
        let z = kb.intern("Z");
        let r = kb.intern("rel");
        kb.add_triple(e1, r, x);
        kb.add_triple(e1, r, y);
        kb.add_triple(e2, r, x);
        kb.add_triple(e2, r, y);
        kb.add_triple(e2, r, z);
        kb.add_triple(e3, r, z);
        (kb, e1, e2, e3)
    }

    #[test]
    fn shared_neighbors_mean_relatedness() {
        let (kb, e1, e2, e3) = setup();
        let idx = CoherenceIndex::build(&kb, [e1, e2, e3]);
        let r12 = idx.relatedness(e1, e2);
        let r13 = idx.relatedness(e1, e3);
        assert!(r12 > 0.0);
        assert_eq!(r13, 0.0, "no shared neighbors");
        assert!(r12 > r13);
    }

    #[test]
    fn relatedness_is_symmetric_and_reflexive() {
        let (kb, e1, e2, _) = setup();
        let idx = CoherenceIndex::build(&kb, [e1, e2]);
        assert!((idx.relatedness(e1, e2) - idx.relatedness(e2, e1)).abs() < 1e-12);
        assert_eq!(idx.relatedness(e1, e1), 1.0);
    }

    #[test]
    fn unknown_entities_score_zero() {
        let (kb, e1, _, _) = setup();
        let idx = CoherenceIndex::build(&kb, [e1]);
        assert_eq!(idx.relatedness(e1, TermId(999)), 0.0);
    }

    #[test]
    fn bounds_hold() {
        let (kb, e1, e2, e3) = setup();
        let idx = CoherenceIndex::build(&kb, [e1, e2, e3]);
        for a in [e1, e2, e3] {
            for b in [e1, e2, e3] {
                let r = idx.relatedness(a, b);
                assert!((0.0..=1.0).contains(&r), "r({a},{b}) = {r}");
            }
        }
    }
}
