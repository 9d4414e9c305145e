//! String interning: every term used in the KB is mapped to a dense
//! [`TermId`] exactly once.
//!
//! The dictionary is one flat table, the HDT-style dictionary block
//! held in memory: a [`TermArena`] (every term's text back to back,
//! one end offset per id) and an open-addressed table of ids hashed by
//! text (an `IdTable`, the type the triple table is made of too). A
//! term costs its bytes plus about three `u32`s, with no allocation of
//! its own, and a segment's dictionary region decodes straight into the
//! arena. A delta holds only the arena of the terms it added, which its
//! view's stack table files.

use std::hash::Hasher;

use crate::fx::FxHasher;
use crate::idtable::{distinct, IdTable};
use crate::TermId;

/// The hash a term is filed under, in the dictionary and in the delta
/// stack's table alike.
#[inline]
pub(crate) fn term_hash(term: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(term.as_bytes());
    h.finish()
}

/// Terms' text back to back in id order, one end offset per id.
#[derive(Debug, Default, Clone)]
pub(crate) struct TermArena {
    /// Every term's text, back to back in id order.
    text: String,
    /// `ends[i]` is where term `i` ends in `text`; it starts where term
    /// `i - 1` ends (term 0 at 0).
    ends: Vec<u32>,
}

impl TermArena {
    /// The text of issued id `id`.
    #[inline]
    pub(crate) fn at(&self, id: u32) -> &str {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// The text of `id`, or `None` past the last id.
    #[inline]
    pub(crate) fn resolve(&self, id: u32) -> Option<&str> {
        ((id as usize) < self.ends.len()).then(|| self.at(id))
    }

    /// Number of terms.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// Appends `term` and returns its id.
    ///
    /// # Panics
    /// Past `u32::MAX` terms or `u32::MAX` bytes of term text.
    #[expect(
        clippy::expect_used,
        reason = "ids and text offsets are u32 by the segment format; a KB past 4 G terms or \
                  4 GiB of term text cannot be written either"
    )]
    pub(crate) fn push(&mut self, term: &str) -> u32 {
        let id = u32::try_from(self.ends.len()).expect("dictionary overflow: >u32::MAX terms");
        let end = u32::try_from(self.text.len() + term.len())
            .expect("dictionary overflow: >u32::MAX bytes of term text");
        self.text.push_str(term);
        self.ends.push(end);
        id
    }

    /// Every term in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &str> {
        (0..self.ends.len() as u32).map(|id| self.at(id))
    }
}

/// A bidirectional string ↔ [`TermId`] map.
///
/// Ids are issued densely starting at 0 in first-seen order, which makes
/// them usable as vector indexes in downstream per-term tables.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    terms: TermArena,
    /// Every id, filed by the hash of its text.
    ids: IdTable,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adopts an arena filled by a loader: `text` holds the terms back to
    /// back and `ends[i]` is where term `i` ends (non-decreasing, the last
    /// at `text.len()`, every one on a character boundary). Builds the id
    /// table in one pass; returns `None` if the arena holds a duplicate
    /// term — a loader-side validation, since a live dictionary can never
    /// contain one.
    pub(crate) fn from_arena(text: String, ends: Vec<u32>) -> Option<Self> {
        debug_assert_eq!(ends.last().map_or(0, |&e| e as usize), text.len());
        let terms = TermArena { text, ends };
        let same = |a: u32, b: u32| terms.at(a) == terms.at(b);
        let mut ids = IdTable::default();
        ids.file(0, terms.len(), |id| term_hash(terms.at(id)), same).ok()?;
        Some(Self { terms, ids })
    }

    /// The arena alone, its id table dropped: a delta's extension terms,
    /// which the view's stack table files.
    pub(crate) fn into_arena(self) -> TermArena {
        self.terms
    }

    /// Interns `term`, returning its id. Idempotent: the same string
    /// always yields the same id.
    ///
    /// # Panics
    /// Past `u32::MAX` terms or `u32::MAX` bytes of term text.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(id) = self.get(term) {
            return id;
        }
        let (id, terms) = (self.terms.push(term), &self.terms);
        let _ = self.ids.file(id as usize, terms.len(), |id| term_hash(terms.at(id)), distinct);
        TermId(id)
    }

    /// Looks up an already-interned term without inserting.
    #[inline]
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.ids.get(|| term_hash(term), |id| self.terms.at(id) == term).map(TermId)
    }

    /// Resolves an id back to its string, or `None` if the id was never
    /// issued by this dictionary.
    #[inline]
    pub fn resolve(&self, id: TermId) -> Option<&str> {
        self.terms.resolve(id.0)
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.len() == 0
    }

    /// Heap bytes of the three buffers, from their capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.terms.text.capacity() + 4 * self.terms.ends.capacity() + self.ids.heap_bytes()
    }

    /// Iterates over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms.iter().enumerate().map(|(id, term)| (TermId(id as u32), term))
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

    #[test]
    fn the_id_table_stays_at_most_half_full() {
        let mut d = Dictionary::new();
        assert_eq!(d.ids.slot_count(), 0);
        for i in 0..1_000 {
            d.intern(&format!("t{i}"));
            let slots = d.ids.slot_count();
            assert!(2 * d.len() <= slots, "{} terms in {} slots", d.len(), slots);
        }
    }
}
