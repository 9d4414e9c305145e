//! String interning: every term used in the KB is mapped to a dense
//! [`TermId`] exactly once.
//!
//! The dictionary is one flat table, the HDT-style dictionary block
//! held in memory: every term's text back to back in one arena, one
//! end offset per id, and an open-addressed table of ids hashed by
//! text. A term costs its bytes plus about three `u32`s, with no
//! allocation of its own, and a segment's dictionary region decodes
//! straight into the arena. The base of a view and each delta's
//! extension table are both a `Dictionary`.

use std::hash::Hasher;

use crate::fx::FxHasher;
use crate::TermId;

/// Fewest slots the id table grows to from empty.
const MIN_SLOTS: usize = 16;

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
    /// Open-addressed, linearly probed table of `id + 1` (0 = empty),
    /// indexed by the high bits of the term's hash. Its length is zero or
    /// a power of two, and it is at most half full.
    slots: Vec<u32>,
}

fn hash(term: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(term.as_bytes());
    h.finish()
}

/// Slots for `n` terms at a load of at most one half.
fn slots_for(n: usize) -> usize {
    (2 * n).next_power_of_two().max(MIN_SLOTS)
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a dictionary sized for roughly `n` distinct terms.
    pub fn with_capacity(n: usize) -> Self {
        Self { text: String::new(), ends: Vec::with_capacity(n), slots: vec![0; slots_for(n)] }
    }

    /// Adopts an arena filled by a loader: `text` holds the terms back to
    /// back and `ends[i]` is where term `i` ends (non-decreasing, the last
    /// at `text.len()`, every one on a character boundary). Builds the id
    /// table in one pass; returns `None` if the arena holds a duplicate
    /// term — a loader-side validation, since a live dictionary can never
    /// contain one.
    pub(crate) fn from_arena(text: String, ends: Vec<u32>) -> Option<Self> {
        debug_assert_eq!(ends.last().map_or(0, |&e| e as usize), text.len());
        let mut dict = Self { text, slots: vec![0; slots_for(ends.len())], ends };
        for id in 0..dict.ends.len() as u32 {
            let slot = dict.find(dict.term_at(id)).err()?;
            dict.slots[slot] = id + 1;
        }
        Some(dict)
    }

    /// The text of an issued id.
    #[inline]
    fn term_at(&self, id: u32) -> &str {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Where `term`'s probe sequence starts.
    #[inline]
    fn home(&self, term: &str) -> usize {
        // `slots.len()` is a power of two of at least `MIN_SLOTS`, so the
        // shift is in 1..64.
        (hash(term) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The id holding `term`, or the empty slot where it would go. The
    /// table must be non-empty.
    #[inline]
    fn find(&self, term: &str) -> Result<TermId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(term);
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if self.term_at(s - 1) == term => return Ok(TermId(s - 1)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The first empty slot of `term`'s probe sequence. The table must be
    /// non-empty.
    fn vacant(&self, term: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(term);
        while self.slots[i] != 0 {
            i = (i + 1) & mask;
        }
        i
    }

    /// Rebuilds the id table at `slots` slots. Every term is distinct, so
    /// each id goes in the first empty slot of its probe sequence.
    fn rehash(&mut self, slots: usize) {
        self.slots = vec![0; slots];
        for id in 0..self.ends.len() as u32 {
            let slot = self.vacant(self.term_at(id));
            self.slots[slot] = id + 1;
        }
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
        if 2 * (self.ends.len() + 1) > self.slots.len() {
            self.rehash(slots_for(self.ends.len() + 1));
        }
        let slot = self.vacant(term);
        self.text.push_str(term);
        self.ends.push(end);
        self.slots[slot] = id + 1;
        TermId(id)
    }

    /// Looks up an already-interned term without inserting.
    #[inline]
    pub fn get(&self, term: &str) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(term).ok()
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
        self.text.capacity() + 4 * (self.ends.capacity() + self.slots.capacity())
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
        assert_eq!(d.slots.len(), MIN_SLOTS);
        for i in 0..1_000 {
            d.intern(&format!("t{i}"));
            assert!(2 * d.len() <= d.slots.len(), "{} terms in {} slots", d.len(), d.slots.len());
        }
    }
}
