//! The class taxonomy: a subclass-of DAG with transitive subsumption.
//!
//! Every entity in a KB belongs to one or more classes, and classes are
//! organized into a taxonomy where special classes are subsumed by more
//! general ones (tutorial §2, "Harvesting Knowledge on Entities and
//! Classes"). The taxonomy is kept acyclic by construction:
//! [`Taxonomy::add_subclass`] rejects edges that would close a cycle.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::{StoreError, TermId};

/// A subclass-of DAG over class terms.
#[derive(Debug, Default, Clone)]
pub struct Taxonomy {
    /// class -> direct superclasses
    up: HashMap<TermId, Vec<TermId>>,
    /// class -> direct subclasses
    down: HashMap<TermId, Vec<TermId>>,
    /// all classes ever mentioned (including leaves/roots without edges)
    classes: HashSet<TermId>,
    edges: usize,
}

impl Taxonomy {
    /// Creates an empty taxonomy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a class without any edges (idempotent).
    pub fn add_class(&mut self, class: TermId) {
        self.classes.insert(class);
    }

    /// Adds `sub subclassOf sup`. Rejects self-loops and edges that would
    /// create a cycle. Duplicate edges are ignored. Returns whether a new
    /// edge was inserted.
    pub fn add_subclass(&mut self, sub: TermId, sup: TermId) -> Result<bool, StoreError> {
        if sub == sup {
            return Err(StoreError::TaxonomyCycle { sub, sup });
        }
        if self.is_subclass_of(sup, sub) {
            return Err(StoreError::TaxonomyCycle { sub, sup });
        }
        self.classes.insert(sub);
        self.classes.insert(sup);
        let ups = self.up.entry(sub).or_default();
        if ups.contains(&sup) {
            return Ok(false);
        }
        ups.push(sup);
        self.down.entry(sup).or_default().push(sub);
        self.edges += 1;
        Ok(true)
    }

    /// Every class the taxonomy knows about (including isolated ones
    /// registered via [`add_class`](Self::add_class)), sorted — the
    /// deterministic order the segment writer serializes.
    pub(crate) fn all_classes(&self) -> Vec<TermId> {
        let mut out: Vec<TermId> = self.classes.iter().copied().collect();
        out.sort_unstable();
        out
    }

    /// Direct superclasses of `class`.
    pub fn superclasses(&self, class: TermId) -> &[TermId] {
        self.up.get(&class).map_or(&[], |v| v.as_slice())
    }

    /// Direct subclasses of `class`.
    pub fn subclasses(&self, class: TermId) -> &[TermId] {
        self.down.get(&class).map_or(&[], |v| v.as_slice())
    }

    /// Transitive (reflexive) subsumption test: is `sub` equal to or a
    /// descendant of `sup`?
    pub fn is_subclass_of(&self, sub: TermId, sup: TermId) -> bool {
        if sub == sup {
            return true;
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::from([sub]);
        while let Some(c) = queue.pop_front() {
            for &parent in self.superclasses(c) {
                if parent == sup {
                    return true;
                }
                if seen.insert(parent) {
                    queue.push_back(parent);
                }
            }
        }
        false
    }

    /// All ancestors of `class` (excluding itself), breadth-first.
    pub fn ancestors(&self, class: TermId) -> Vec<TermId> {
        let mut seen = HashSet::new();
        let mut order = Vec::new();
        let mut queue = VecDeque::from([class]);
        while let Some(c) = queue.pop_front() {
            for &next in self.superclasses(c) {
                if seen.insert(next) {
                    order.push(next);
                    queue.push_back(next);
                }
            }
        }
        order
    }

    /// Leaf classes: classes with no subclass.
    pub fn leaves(&self) -> Vec<TermId> {
        let mut leaves: Vec<TermId> =
            self.classes.iter().copied().filter(|c| self.subclasses(*c).is_empty()).collect();
        leaves.sort_unstable();
        leaves
    }

    /// Depth of a class: length of the longest upward path to a root.
    pub fn depth(&self, class: TermId) -> usize {
        let ups = self.superclasses(class);
        if ups.is_empty() {
            return 0;
        }
        1 + ups.iter().map(|&p| self.depth(p)).max().unwrap_or(0)
    }

    /// Number of registered classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of subclass edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Whether `class` is known to the taxonomy.
    pub fn contains(&self, class: TermId) -> bool {
        self.classes.contains(&class)
    }

    /// Iterates over all `(sub, sup)` edges in unspecified order.
    pub fn edges(&self) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        self.up.iter().flat_map(|(&sub, sups)| sups.iter().map(move |&sup| (sub, sup)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u32) -> TermId {
        TermId(i)
    }

    /// person(0) -> entity(9); scientist(1) -> person; physicist(2) -> scientist;
    /// musician(3) -> person; org(4) -> entity
    fn sample() -> Taxonomy {
        let mut t = Taxonomy::new();
        t.add_subclass(c(0), c(9)).unwrap();
        t.add_subclass(c(1), c(0)).unwrap();
        t.add_subclass(c(2), c(1)).unwrap();
        t.add_subclass(c(3), c(0)).unwrap();
        t.add_subclass(c(4), c(9)).unwrap();
        t
    }

    #[test]
    fn transitive_subsumption() {
        let t = sample();
        assert!(t.is_subclass_of(c(2), c(9)));
        assert!(t.is_subclass_of(c(2), c(0)));
        assert!(t.is_subclass_of(c(2), c(2)), "reflexive");
        assert!(!t.is_subclass_of(c(0), c(2)), "not symmetric");
        assert!(!t.is_subclass_of(c(3), c(1)));
    }

    #[test]
    fn cycles_are_rejected() {
        let mut t = sample();
        assert!(matches!(t.add_subclass(c(9), c(2)), Err(StoreError::TaxonomyCycle { .. })));
        assert!(matches!(t.add_subclass(c(0), c(0)), Err(StoreError::TaxonomyCycle { .. })));
        // Failed inserts leave the structure untouched.
        assert_eq!(t.edge_count(), 5);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut t = sample();
        assert!(!t.add_subclass(c(1), c(0)).unwrap());
        assert_eq!(t.edge_count(), 5);
    }

    #[test]
    fn ancestors_and_descendants() {
        let t = sample();
        let anc = t.ancestors(c(2));
        assert_eq!(anc, vec![c(1), c(0), c(9)]);
        let desc: Vec<TermId> =
            (1..10).map(c).filter(|&d| t.contains(d) && t.is_subclass_of(d, c(0))).collect();
        assert_eq!(desc, vec![c(1), c(2), c(3)]);
        assert!(t.ancestors(c(9)).is_empty());
    }

    #[test]
    fn roots_and_leaves() {
        let t = sample();
        let roots: Vec<TermId> =
            (0..10).map(c).filter(|&r| t.contains(r) && t.depth(r) == 0).collect();
        assert_eq!(roots, vec![c(9)]);
        assert_eq!(t.leaves(), vec![c(2), c(3), c(4)]);
    }

    #[test]
    fn depth_measures_longest_path() {
        let t = sample();
        assert_eq!(t.depth(c(9)), 0);
        assert_eq!(t.depth(c(0)), 1);
        assert_eq!(t.depth(c(2)), 3);
    }

    #[test]
    fn diamond_dag_is_allowed() {
        // a -> b, a -> c, b -> d, c -> d : a has two paths to d.
        let mut t = Taxonomy::new();
        t.add_subclass(c(10), c(11)).unwrap();
        t.add_subclass(c(10), c(12)).unwrap();
        t.add_subclass(c(11), c(13)).unwrap();
        t.add_subclass(c(12), c(13)).unwrap();
        assert!(t.is_subclass_of(c(10), c(13)));
        assert_eq!(t.depth(c(10)), 2);
    }

    #[test]
    fn isolated_classes_count() {
        let mut t = Taxonomy::new();
        t.add_class(c(7));
        assert!(t.contains(c(7)));
        assert_eq!(t.class_count(), 1);
        assert_eq!(t.depth(c(7)), 0);
        assert_eq!(t.leaves(), vec![c(7)]);
    }
}
