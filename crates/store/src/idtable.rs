//! Open-addressed tables of dense ids whose keys live in the table
//! they index.
//!
//! The dictionary maps a term's text to its id and the triple table
//! maps a triple to its fact id. Neither keeps a second copy of its
//! keys: an [`IdTable`] is one `Vec<u32>` of `id + 1` (0 = empty),
//! linearly probed from the high bits of the key's hash and kept at
//! most half full, and a slot's key is read back from the arena or the
//! fact row it names. One probing body serves both; the caller brings
//! the hash and the key-equality test. A slot costs 4 B, so a table of
//! `n` ids costs between 8 and 16 B an id.

use std::hash::Hasher;

use crate::fact::{Fact, Triple};
use crate::fx::FxHasher;
use crate::ids::FactId;

/// Fewest slots a table grows to from empty.
const MIN_SLOTS: usize = 16;

/// The key test of ids whose keys are known to be distinct.
pub(crate) fn distinct(_: u32, _: u32) -> bool {
    false
}

/// Slots for `n` ids at a load of at most one half.
fn slots_for(n: usize) -> usize {
    (2 * n).next_power_of_two().max(MIN_SLOTS)
}

/// An open-addressed, linearly probed table of `id + 1` (0 = empty),
/// indexed by the high bits of a key's hash. Its length is zero or a
/// power of two, and it is at most half full. The ids it holds are
/// `0..n` for the `n` rows of the table it indexes, and their keys are
/// distinct.
#[derive(Debug, Default, Clone)]
pub(crate) struct IdTable {
    slots: Vec<u32>,
}

/// A table of no ids: the stack table of a view with no deltas.
pub(crate) static EMPTY: IdTable = IdTable { slots: Vec::new() };

impl IdTable {
    /// Files ids `from..n` in order over ids `0..from`, or stops at the
    /// first of them whose key `same(earlier, id)` finds at an earlier
    /// id: the probe that finds its slot meets any earlier holder of its
    /// key. A table that would be more than half full is first rebuilt
    /// from ids `0..from`, each in the first empty slot of its probe
    /// sequence. A live table, which never files a key twice, passes
    /// [`distinct`]; a loader checks an image's rows from 0.
    pub(crate) fn file(
        &mut self,
        from: usize,
        n: usize,
        hash_of: impl Fn(u32) -> u64,
        same: impl Fn(u32, u32) -> bool,
    ) -> Result<(), u32> {
        let from = from as u32;
        let start = if 2 * n > self.slots.len() {
            // The keys live in the indexed rows, so the old slots are
            // freed before the new ones are allocated.
            self.slots = Vec::new();
            self.slots = vec![0; slots_for(n)];
            0
        } else {
            from
        };
        for id in start..n as u32 {
            let is = |earlier| id >= from && same(earlier, id);
            let slot = self.find(hash_of(id), is).err().ok_or(id)?;
            self.slots[slot] = id + 1;
        }
        Ok(())
    }

    /// Where the probe sequence of a key of hash `hash` starts.
    #[inline]
    fn home(&self, hash: u64) -> usize {
        // `slots.len()` is a power of two of at least `MIN_SLOTS`, so the
        // shift is in 1..64.
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The id filed under the key's hash whose key `is` accepts. An
    /// empty table answers without hashing: the delta stack's term table
    /// is one until a delta adds a term, and every base miss asks it.
    #[inline]
    pub(crate) fn get(
        &self,
        hash: impl FnOnce() -> u64,
        is: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(hash(), is).ok()
    }

    /// The id filed under `hash` whose key `is` accepts, or the empty
    /// slot where it would go. The table must be non-empty.
    #[inline]
    fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(hash);
        loop {
            match self.slots[i] {
                0 => return Err(i),
                s if is(s - 1) => return Ok(s - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Heap bytes of the slots, from their capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        4 * self.slots.capacity()
    }

    /// Number of slots, filled or not.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

/// The triple table: every row of a fact table filed by its triple,
/// so that `facts[id].triple` is the key of fact id `id`. Every row is
/// filed, retracted and tombstone rows included, and no two rows hold
/// the same triple.
#[derive(Debug, Default, Clone)]
pub(crate) struct TripleIds(IdTable);

#[inline]
fn triple_hash(t: &Triple) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(u64::from(t.s.0) | u64::from(t.p.0) << 32);
    h.write_u32(t.o.0);
    h.finish()
}

/// The hash of row `id`'s triple.
fn row_hash(facts: &[Fact]) -> impl Fn(u32) -> u64 + '_ {
    |id| triple_hash(&facts[id as usize].triple)
}

impl TripleIds {
    /// The table of `facts`, whose triples must be distinct.
    pub(crate) fn of(facts: &[Fact]) -> Self {
        let mut table = IdTable::default();
        let _ = table.file(0, facts.len(), row_hash(facts), distinct);
        Self(table)
    }

    /// The table of `facts`, or the first row whose triple an earlier
    /// row already holds.
    pub(crate) fn checked(facts: &[Fact]) -> Result<Self, usize> {
        let same = |a: u32, b: u32| facts[a as usize].triple == facts[b as usize].triple;
        let mut table = IdTable::default();
        table.file(0, facts.len(), row_hash(facts), same).map_err(|id| id as usize)?;
        Ok(Self(table))
    }

    /// The row of `facts` that holds `t`.
    #[inline]
    pub(crate) fn get(&self, facts: &[Fact], t: &Triple) -> Option<FactId> {
        self.0.get(|| triple_hash(t), |id| facts[id as usize].triple == *t).map(FactId)
    }

    /// Files the last row of `facts`, just pushed, whose triple no
    /// earlier row holds.
    pub(crate) fn file_last(&mut self, facts: &[Fact]) {
        let _ = self.0.file(facts.len() - 1, facts.len(), row_hash(facts), distinct);
    }

    /// Heap bytes of the slots, from their capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }

    /// Number of slots, filled or not.
    #[cfg(test)]
    pub(crate) fn slot_count(&self) -> usize {
        self.0.slot_count()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use proptest::prelude::*;

    use super::*;
    use crate::builder::KbCore;
    use crate::{partition_snapshot, KbBuilder, KbRead, SegmentedSnapshot};

    /// Triples of the pool: `8a + 4b + c` is `(e{a}, p{b}, o{c})`.
    const POOL: u32 = 400;

    fn pool_terms(b: &mut KbBuilder) -> Vec<Triple> {
        (0..POOL)
            .map(|k| {
                let s = b.intern(&format!("e{}", k / 8));
                let p = b.intern(&format!("p{}", k / 4 % 2));
                let o = b.intern(&format!("o{}", k % 4));
                Triple::new(s, p, o)
            })
            .collect()
    }

    /// Every row of `core` filed at its own id, the table at most half
    /// full.
    fn assert_filed(core: &KbCore) {
        let (rows, slots) = (core.facts.len(), core.by_triple.slot_count());
        assert!(2 * rows <= slots, "{rows} rows in {slots} slots");
        for (i, f) in core.facts.iter().enumerate() {
            assert_eq!(core.by_triple.get(&core.facts, &f.triple), Some(FactId(i as u32)));
        }
    }

    /// `(op, k)` pairs as steps `(assert, triple)`: op 0 and 1 assert
    /// pool triple `k`, 2 retracts it, and 3 re-asserts the triple of
    /// one of the steps before it.
    fn steps(ops: &[(u8, u32)]) -> Vec<(bool, u32)> {
        let mut steps: Vec<(bool, u32)> = Vec::with_capacity(ops.len());
        for (i, &(op, k)) in ops.iter().enumerate() {
            steps.push(match op {
                3 if i > 0 => (true, steps[k as usize % i].1),
                2 => (false, k),
                _ => (true, k),
            });
        }
        steps
    }

    /// Applies `steps` to `b`, checking it against a map model of
    /// entry ids and a map of which triples are live: after every step,
    /// that the table is at most half full and the stepped triple's
    /// entry id, `fact_for` and `contains`; every 32 steps and after the
    /// last, those of every pool triple. Returns the live map.
    fn replay(
        b: &mut KbBuilder,
        pool: &[Triple],
        steps: &[(bool, u32)],
    ) -> Result<BTreeMap<Triple, bool>, TestCaseError> {
        let mut ids: BTreeMap<Triple, FactId> = BTreeMap::new();
        let mut live: BTreeMap<Triple, bool> = BTreeMap::new();
        for (i, &(assert, k)) in steps.iter().enumerate() {
            let t = pool[k as usize];
            let next = FactId(ids.len() as u32);
            let want = *ids.entry(t).or_insert(next);
            let was = live.insert(t, assert).unwrap_or(false);
            if assert {
                prop_assert_eq!(b.add_fact(Fact { confidence: 0.5, ..Fact::asserted(t) }), want);
            } else {
                prop_assert_eq!(b.retract(t), was);
            }
            let core = &b.core;
            let (rows, slots) = (core.facts.len(), core.by_triple.slot_count());
            prop_assert!(2 * rows <= slots, "{} rows in {} slots", rows, slots);
            prop_assert_eq!(rows, ids.len());
            let all = i % 32 == 31 || i + 1 == steps.len();
            for t in if all { pool } else { std::slice::from_ref(&t) } {
                let on = live.get(t).copied().unwrap_or(false);
                prop_assert_eq!(core.by_triple.get(&core.facts, t), ids.get(t).copied());
                prop_assert_eq!(b.fact_for(t).is_some(), on);
                prop_assert_eq!(b.contains(t), on);
            }
        }
        Ok(live)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The triple table behaves like a `BTreeMap<Triple, FactId>`
        /// model under any sequence of assertions, retractions and
        /// re-assertions, through several growths, and stays at most
        /// half full. A base frozen from a prefix of the steps under a
        /// delta of the rest compacts into a core whose every row is
        /// filed at its id and whose live set is the model's; so does
        /// every partition of the compacted snapshot, each triple live
        /// in at most one.
        #[test]
        fn the_triple_table_matches_a_map_model(
            ops in prop::collection::vec((0u8..4, 0u32..POOL), 0..600),
            cut in 0usize..600,
            parts in 1usize..4,
        ) {
            let steps = steps(&ops);
            let cut = cut.min(steps.len());
            let mut b = KbBuilder::new();
            let pool = pool_terms(&mut b);
            let live = replay(&mut b, &pool, &steps)?;
            assert_filed(&b.core);

            // Every builder interns the pool first, so all share its ids.
            let mut first = KbBuilder::new();
            prop_assert_eq!(&pool_terms(&mut first), &pool);
            replay(&mut first, &pool, &steps[..cut])?;
            let view = SegmentedSnapshot::from_base(Arc::new(first.freeze()));
            let mut rest = KbBuilder::new();
            pool_terms(&mut rest);
            replay(&mut rest, &pool, &steps[cut..])?;
            let delta = rest.freeze_delta(&view);
            for (i, f) in delta.facts.iter().enumerate() {
                let id = delta.by_triple.get(&delta.facts, &f.triple);
                prop_assert_eq!(id, Some(FactId(i as u32)));
            }
            let compacted = view.with_delta(Arc::new(delta)).compact().unwrap();
            assert_filed(compacted.core());
            let split = partition_snapshot(&compacted, parts);
            for part in &split {
                assert_filed(part.core());
            }
            for t in &pool {
                let on = live.get(t).copied().unwrap_or(false);
                prop_assert_eq!(compacted.fact_for(t).is_some(), on);
                let holders = split.iter().filter(|part| part.fact_for(t).is_some()).count();
                prop_assert_eq!(holders, usize::from(on));
            }
        }
    }
}
