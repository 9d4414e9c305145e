//! Cardinality statistics harvested from a KB view — the planner's
//! cost-model input.
//!
//! Distinct counts are run boundaries of scans the indexes already
//! sort: one batch scan in SPO order yields the subject runs (distinct
//! subjects), the `(s, p)` runs (distinct subjects per predicate) and,
//! through one bit per term, the distinct objects; one batch scan per
//! predicate in POS order — sorted by `(o, s)` — yields its count and
//! its object runs. Building the catalog is `O(n)`, allocates nothing
//! per fact and is done once per snapshot — the serving layer shares
//! one catalog across all queries against a view and folds each delta
//! into it.

use std::collections::HashMap;

use kb_store::{KbRead, KbReadBatch, TermId, TripleBatch, TriplePattern};

/// Statistics for one predicate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PredStat {
    /// Live facts with this predicate.
    pub count: usize,
    /// Distinct subjects among them.
    pub distinct_s: usize,
    /// Distinct objects among them.
    pub distinct_o: usize,
}

/// Per-predicate and whole-KB cardinality statistics.
#[derive(Debug, Clone, Default)]
pub struct StatsCatalog {
    /// Total live facts.
    pub total: usize,
    /// Per-predicate stats.
    pub per_pred: HashMap<TermId, PredStat>,
    /// Distinct subjects across the whole KB.
    pub distinct_s: usize,
    /// Distinct objects across the whole KB.
    pub distinct_o: usize,
}

impl StatsCatalog {
    /// Harvests the catalog from any [`KbRead`] view: one batch scan in
    /// SPO order, then one per predicate in POS order. Every distinct
    /// count but one is a count of run boundaries, so nothing is sorted
    /// and nothing is allocated per fact.
    pub fn build<K: KbRead + ?Sized>(kb: &K) -> Self {
        let mut batch = TripleBatch::new();
        let mut cat = StatsCatalog { total: kb.len(), ..StatsCatalog::default() };

        // SPO order: a new subject starts a subject run, a new (s, p)
        // pair is one more distinct subject of `p`. Objects arrive in no
        // order here; one bit a term says which have been seen.
        let mut seen_o = vec![0u64; kb.term_count().div_ceil(64)];
        let mut last: Option<(TermId, TermId)> = None;
        let mut scan = kb.matching_batches(&TriplePattern::any());
        while scan.next_batch(&mut batch) {
            for ((&s, &p), &o) in batch.s.iter().zip(&batch.p).zip(&batch.o) {
                if last != Some((s, p)) {
                    cat.distinct_s += usize::from(last.map(|(s, _)| s) != Some(s));
                    cat.per_pred.entry(p).or_default().distinct_s += 1;
                    last = Some((s, p));
                }
                let (word, bit) = (o.index() / 64, 1u64 << (o.index() % 64));
                if word >= seen_o.len() {
                    seen_o.resize(word + 1, 0);
                }
                cat.distinct_o += usize::from(seen_o[word] & bit == 0);
                seen_o[word] |= bit;
            }
        }

        // POS order: a predicate's rows are one range sorted by (o, s) —
        // its length is the count, its object runs the distinct objects.
        for (&p, st) in cat.per_pred.iter_mut() {
            let mut last_o = None;
            let mut scan = kb.matching_batches(&TriplePattern::with_p(p));
            while scan.next_batch(&mut batch) {
                st.count += batch.len();
                for &o in &batch.o {
                    st.distinct_o += usize::from(last_o != Some(o));
                    last_o = Some(o);
                }
            }
        }
        cat
    }

    /// Folds one [`DeltaSegment`] into the catalog without rescanning
    /// the base: net-new facts bump the per-predicate and total counts
    /// exactly; tombstones subtract exactly; shadow entries change no
    /// cardinality. Distinct-value counts are maintained as *sums of
    /// per-segment distincts* — an upper bound (a delta may repeat a
    /// subject the base already knows), which only skews the uniformity
    /// division slightly and keeps the merge `O(delta)` instead of
    /// `O(base)`. The next full rebuild/compaction restores exactness.
    ///
    /// [`DeltaSegment`]: kb_store::DeltaSegment
    pub fn merged_with_delta(&self, delta: &kb_store::DeltaSegment) -> Self {
        let mut cat = self.clone();
        // Group the net-new facts per predicate; count delta-local
        // distincts in one sort each.
        let mut per_new: HashMap<TermId, (usize, Vec<TermId>, Vec<TermId>)> = HashMap::new();
        let mut new_s: Vec<TermId> = Vec::new();
        let mut new_o: Vec<TermId> = Vec::new();
        for f in delta.new_facts_iter() {
            let e = per_new.entry(f.triple.p).or_default();
            e.0 += 1;
            e.1.push(f.triple.s);
            e.2.push(f.triple.o);
            new_s.push(f.triple.s);
            new_o.push(f.triple.o);
            cat.total += 1;
        }
        for (p, (count, mut ss, mut oo)) in per_new {
            ss.sort_unstable();
            ss.dedup();
            oo.sort_unstable();
            oo.dedup();
            let st = cat.per_pred.entry(p).or_insert(PredStat {
                count: 0,
                distinct_s: 0,
                distinct_o: 0,
            });
            st.count += count;
            st.distinct_s += ss.len();
            st.distinct_o += oo.len();
        }
        for f in delta.tombstones_iter() {
            cat.total = cat.total.saturating_sub(1);
            if let Some(st) = cat.per_pred.get_mut(&f.triple.p) {
                st.count = st.count.saturating_sub(1);
            }
        }
        // Global distincts: only terms allocated by this delta are
        // provably unseen; older ids may already be counted, so they
        // are skipped (keeps the bound tight-ish in both directions).
        let first = delta.first_term();
        for terms in [&mut new_s, &mut new_o] {
            terms.retain(|t| *t >= first);
            terms.sort_unstable();
            terms.dedup();
        }
        cat.distinct_s += new_s.len();
        cat.distinct_o += new_o.len();
        cat
    }

    /// Estimated matches for a scan of `pred` (a constant predicate id,
    /// or `None` for an unbound/variable predicate position) given
    /// whether the subject/object positions are fixed (a constant or an
    /// already-bound variable) at scan time.
    ///
    /// Uses the classic uniformity assumption: fixing a component
    /// divides the range cardinality by its distinct count.
    pub(crate) fn estimate(&self, pred: Option<TermId>, s_fixed: bool, o_fixed: bool) -> f64 {
        let (base, ds, do_) = match pred {
            Some(p) => match self.per_pred.get(&p) {
                // A constant predicate the KB has never seen: the scan
                // is empty, whatever else is bound.
                None => return 0.0,
                Some(st) => (st.count as f64, st.distinct_s as f64, st.distinct_o as f64),
            },
            None => (self.total as f64, self.distinct_s as f64, self.distinct_o as f64),
        };
        let mut est = base;
        if s_fixed {
            est /= ds.max(1.0);
        }
        if o_fixed {
            est /= do_.max(1.0);
        }
        est.max(if base == 0.0 { 0.0 } else { f64::MIN_POSITIVE })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbBuilder;

    #[test]
    fn catalog_counts_are_exact() {
        let mut b = KbBuilder::new();
        b.assert_str("a", "r", "x");
        b.assert_str("b", "r", "x");
        b.assert_str("b", "r", "y");
        b.assert_str("c", "q", "y");
        let snap = b.freeze();
        let cat = StatsCatalog::build(&snap);
        assert_eq!(cat.total, 4);
        assert_eq!(cat.distinct_s, 3);
        assert_eq!(cat.distinct_o, 2);
        let r = snap.term("r").unwrap();
        let q = snap.term("q").unwrap();
        assert_eq!(cat.per_pred[&r], PredStat { count: 3, distinct_s: 2, distinct_o: 2 });
        assert_eq!(cat.per_pred[&q], PredStat { count: 1, distinct_s: 1, distinct_o: 1 });
    }

    /// The run-boundary counts against sets built from the fact table,
    /// on a monolithic snapshot and on a stack whose delta adds facts
    /// under old and new terms, shadows one and buries others: the
    /// merged scans must still arrive in index order.
    #[test]
    fn catalog_matches_a_count_by_sets_on_monolithic_and_layered_views() {
        use std::collections::{HashMap, HashSet};
        use std::sync::Arc;

        fn by_sets<K: KbRead>(kb: &K) -> StatsCatalog {
            let mut cat = StatsCatalog { total: kb.len(), ..StatsCatalog::default() };
            let (mut all_s, mut all_o) = (HashSet::new(), HashSet::new());
            let mut per: HashMap<TermId, (usize, HashSet<TermId>, HashSet<TermId>)> =
                HashMap::new();
            for t in kb.facts().map(|f| f.triple) {
                all_s.insert(t.s);
                all_o.insert(t.o);
                let e = per.entry(t.p).or_default();
                e.0 += 1;
                e.1.insert(t.s);
                e.2.insert(t.o);
            }
            (cat.distinct_s, cat.distinct_o) = (all_s.len(), all_o.len());
            cat.per_pred = per
                .into_iter()
                .map(|(p, (count, s, o))| {
                    (p, PredStat { count, distinct_s: s.len(), distinct_o: o.len() })
                })
                .collect();
            cat
        }
        fn assert_same<K: KbRead>(kb: &K) {
            let (got, want) = (StatsCatalog::build(kb), by_sets(kb));
            assert_eq!(
                (got.total, got.distinct_s, got.distinct_o),
                (want.total, want.distinct_s, want.distinct_o)
            );
            assert_eq!(got.per_pred, want.per_pred);
        }

        // Several frames, skewed predicates, objects that are subjects.
        let mut b = KbBuilder::new();
        for i in 0u32..5_000 {
            b.assert_str(
                &format!("e{}", i % 700),
                &format!("r{}", (i % 7).min(4)),
                &format!("e{}", (i * 31) % 900),
            );
        }
        let base = b.freeze();
        assert_same(&base);

        let old = kb_store::SegmentedSnapshot::from_base(base.into_shared());
        let mut b = KbBuilder::new();
        for i in 0u32..300 {
            b.assert_str(&format!("e{}", i % 700), "r_new", &format!("fresh{}", i % 40));
            b.assert_str(&format!("fresh{i}"), "r1", &format!("e{}", i % 11));
        }
        b.assert_str("e1", "r1", "e31"); // a shadow: i = 1 asserted it
        for i in (0u32..5_000).step_by(13) {
            b.retract_str(
                &format!("e{}", i % 700),
                &format!("r{}", (i % 7).min(4)),
                &format!("e{}", (i * 31) % 900),
            );
        }
        let delta = Arc::new(b.freeze_delta(&old));
        assert!(delta.new_facts() > 0 && delta.shadowed() > 0 && delta.tombstones() > 0);
        assert_same(&old.with_delta(delta));
    }

    #[test]
    fn estimates_shrink_with_bound_components() {
        let mut b = KbBuilder::new();
        for i in 0..10 {
            b.assert_str(&format!("s{i}"), "r", &format!("o{}", i % 2));
        }
        let snap = b.freeze();
        let cat = StatsCatalog::build(&snap);
        let r = snap.term("r").unwrap();
        assert_eq!(cat.estimate(Some(r), false, false), 10.0);
        assert_eq!(cat.estimate(Some(r), true, false), 1.0);
        assert_eq!(cat.estimate(Some(r), false, true), 5.0);
        // Unknown predicate: provably empty.
        assert_eq!(cat.estimate(Some(kb_store::TermId(9999)), false, false), 0.0);
        // Variable predicate: whole-KB stats.
        assert_eq!(cat.estimate(None, false, false), 10.0);
    }
}
