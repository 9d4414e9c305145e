//! String interning: every term used in the KB is mapped to a dense
//! [`TermId`] exactly once.
//!
//! The dictionary is one flat table, the HDT-style dictionary block
//! held in memory: every term's text back to back in one arena, one
//! end offset per id, and an open-addressed table of ids hashed by
//! text (an `IdTable`, the type the triple table is made of too). A
//! term costs its bytes plus about three `u32`s, with no allocation of
//! its own, and a segment's dictionary region decodes straight into the
//! arena. The base of a view and each delta's extension table are both
//! a `Dictionary`.

use std::hash::Hasher;

use crate::fx::FxHasher;
use crate::idtable::IdTable;
use crate::TermId;

/// A bidirectional string ↔ [`TermId`] map.
///
/// Ids are issued densely starting at 0 in first-seen order, which makes
/// them usable as vector indexes in downstream per-term tables.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    /// Every term's text, back to back in id order.
    text: String,
    /// `ends[i]` is where term `i` ends in `text`; it starts where term
    /// `i - 1` ends (term 0 at 0).
    ends: Vec<u32>,
    /// Every id, filed by the hash of its text.
    ids: IdTable,
}

fn hash(term: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(term.as_bytes());
    h.finish()
}

/// The text of issued id `id` in an arena of `text` and `ends`.
#[inline]
fn term_at<'a>(text: &'a str, ends: &[u32], id: u32) -> &'a str {
    let i = id as usize;
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    &text[start..ends[i] as usize]
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dictionary sized for roughly `n` distinct terms.
    pub fn with_capacity(n: usize) -> Self {
        Self { text: String::new(), ends: Vec::with_capacity(n), ids: IdTable::with_capacity(n) }
    }

    /// Adopts an arena filled by a loader: `text` holds the terms back to
    /// back and `ends[i]` is where term `i` ends (non-decreasing, the last
    /// at `text.len()`, every one on a character boundary). Builds the id
    /// table in one pass; returns `None` if the arena holds a duplicate
    /// term — a loader-side validation, since a live dictionary can never
    /// contain one.
    pub(crate) fn from_arena(text: String, ends: Vec<u32>) -> Option<Self> {
        debug_assert_eq!(ends.last().map_or(0, |&e| e as usize), text.len());
        let at = |id| term_at(&text, &ends, id);
        let ids = IdTable::checked(ends.len(), |id| hash(at(id)), |a, b| at(a) == at(b)).ok()?;
        Some(Self { text, ends, ids })
    }

    /// The text of an issued id.
    #[inline]
    fn term_at(&self, id: u32) -> &str {
        term_at(&self.text, &self.ends, id)
    }

    /// Interns `term`, returning its id. Idempotent: the same string
    /// always yields the same id.
    ///
    /// # Panics
    /// Past `u32::MAX` terms or `u32::MAX` bytes of term text.
    #[expect(
        clippy::expect_used,
        reason = "ids and text offsets are u32 by the segment format; a KB past 4 G terms or \
                  4 GiB of term text cannot be written either"
    )]
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(id) = self.get(term) {
            return id;
        }
        let id = u32::try_from(self.ends.len()).expect("dictionary overflow: >u32::MAX terms");
        let end = u32::try_from(self.text.len() + term.len())
            .expect("dictionary overflow: >u32::MAX bytes of term text");
        self.text.push_str(term);
        self.ends.push(end);
        let (text, ends) = (&self.text, &self.ends);
        self.ids.file(ends.len(), |id| hash(term_at(text, ends, id)));
        TermId(id)
    }

    /// Looks up an already-interned term without inserting.
    #[inline]
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.ids.get(|| hash(term), |id| self.term_at(id) == term).map(TermId)
    }

    /// Resolves an id back to its string, or `None` if the id was never
    /// issued by this dictionary.
    #[inline]
    pub fn resolve(&self, id: TermId) -> Option<&str> {
        (id.index() < self.ends.len()).then(|| self.term_at(id.0))
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Heap bytes of the three buffers, from their capacities.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.text.capacity() + 4 * self.ends.capacity() + self.ids.heap_bytes()
    }

    /// Iterates over all `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        (0..self.ends.len() as u32).map(|id| (TermId(id), self.term_at(id)))
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
        let mut d = Dictionary::with_capacity(3);
        assert_eq!(d.ids.slot_count(), 16);
        for i in 0..1_000 {
            d.intern(&format!("t{i}"));
            let slots = d.ids.slot_count();
            assert!(2 * d.len() <= slots, "{} terms in {} slots", d.len(), slots);
        }
    }
}
