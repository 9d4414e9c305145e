//! String interning: every term used in the KB is mapped to a dense
//! [`TermId`] exactly once.
//!
//! The dictionary shares each string between its forward table (id → str)
//! and its reverse map (str → id) via `Arc<str>`, so memory is paid once
//! per distinct term.

use std::sync::Arc;

use crate::fx::{map_bytes, FxHashMap};
use crate::TermId;

/// A bidirectional string ↔ [`TermId`] map.
///
/// Ids are issued densely starting at 0 in first-seen order, which makes
/// them usable as vector indexes in downstream per-term tables.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: Vec<Arc<str>>,
    lookup: FxHashMap<Arc<str>, TermId>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dictionary sized for roughly `n` distinct terms.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            terms: Vec::with_capacity(n),
            lookup: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Interns `term`, returning its id. Idempotent: the same string
    /// always yields the same id.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.lookup.get(term) {
            return id;
        }
        let id =
            TermId(u32::try_from(self.terms.len()).expect("dictionary overflow: >u32::MAX terms"));
        let shared: Arc<str> = Arc::from(term);
        self.terms.push(Arc::clone(&shared));
        self.lookup.insert(shared, id);
        id
    }

    /// Rebuilds a dictionary from its forward table (id order). Returns
    /// `None` if the table holds a duplicate term — a loader-side
    /// validation, since a live dictionary can never contain one.
    pub(crate) fn from_terms(terms: Vec<Arc<str>>) -> Option<Self> {
        let mut lookup = FxHashMap::with_capacity_and_hasher(terms.len(), Default::default());
        for (i, term) in terms.iter().enumerate() {
            if lookup.insert(Arc::clone(term), TermId(i as u32)).is_some() {
                return None;
            }
        }
        Some(Self { terms, lookup })
    }

    /// Looks up an already-interned term without inserting.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.lookup.get(term).copied()
    }

    /// Resolves an id back to its string, or `None` if the id was never
    /// issued by this dictionary.
    pub fn resolve(&self, id: TermId) -> Option<&str> {
        self.terms.get(id.index()).map(|s| s.as_ref())
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Heap bytes of both tables and the shared strings (each a 16-byte
    /// `Arc` count header plus its text), from lengths and capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        let strings: usize = self.terms.iter().map(|t| 16 + t.len()).sum();
        self.terms.capacity() * std::mem::size_of::<Arc<str>>() + map_bytes(&self.lookup) + strings
    }

    /// Iterates over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms.iter().enumerate().map(|(i, s)| (TermId(i as u32), s.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("Steve_Jobs");
        let b = d.intern("Steve_Jobs");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered_by_first_seen() {
        let mut d = Dictionary::new();
        assert_eq!(d.intern("a"), TermId(0));
        assert_eq!(d.intern("b"), TermId(1));
        assert_eq!(d.intern("a"), TermId(0));
        assert_eq!(d.intern("c"), TermId(2));
    }

    #[test]
    fn resolve_round_trips() {
        let mut d = Dictionary::new();
        let id = d.intern("Apple_Inc");
        assert_eq!(d.resolve(id), Some("Apple_Inc"));
        assert_eq!(d.resolve(TermId(999)), None);
    }

    #[test]
    fn get_does_not_insert() {
        let mut d = Dictionary::new();
        assert_eq!(d.get("x"), None);
        assert_eq!(d.len(), 0);
        d.intern("x");
        assert_eq!(d.get("x"), Some(TermId(0)));
    }

    #[test]
    fn iter_yields_everything_in_order() {
        let mut d = Dictionary::new();
        d.intern("a");
        d.intern("b");
        let all: Vec<_> = d.iter().map(|(id, s)| (id.0, s.to_string())).collect();
        assert_eq!(all, vec![(0, "a".to_string()), (1, "b".to_string())]);
    }

    #[test]
    fn empty_and_unicode_terms_are_fine() {
        let mut d = Dictionary::new();
        let empty = d.intern("");
        let uni = d.intern("Zürich");
        assert_eq!(d.resolve(empty), Some(""));
        assert_eq!(d.resolve(uni), Some("Zürich"));
    }
}
