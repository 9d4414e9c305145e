//! Subject-hash partitioning: split one knowledge base into N disjoint
//! slices that together answer exactly like the whole, plus the merged
//! read view the scatter path executes over.
//!
//! The partitioning invariant is *subject colocation*: every fact lives
//! in partition `subject_partition(subject, n)` and nowhere else, so a
//! subject-bound pattern is answerable by exactly one partition while
//! triple keys never collide across partitions. The split is by the
//! subject *string* (not its `TermId`), so the assignment is stable
//! across rebuilds, delta installs and dictionary growth.
//!
//! Three pieces:
//!
//! * [`partition_snapshot`] slices a base [`KbSnapshot`] into N
//!   snapshots. The term dictionary, source table, taxonomy, sameAs
//!   store and labels are replicated wholesale into every partition, so
//!   all partitions speak the same `TermId`/`SourceId` language as
//!   the original — a query plan built against one view is valid
//!   against any of them.
//! * [`partition_delta`] splits an already-frozen [`DeltaSegment`] the
//!   same way: the term/source extension tables are replicated, the
//!   fact rows are routed by subject hash. Because a triple always
//!   colocates with its subject, the New/Shadow/Tombstone kind baked
//!   into each row by the monolithic freeze is exactly what a
//!   per-partition freeze would have computed, so the rows are reused
//!   verbatim. Every partition receives a (possibly empty) delta, which
//!   keeps the per-partition term and source totals marching in
//!   lockstep with the global view — the sequential-stacking contract
//!   holds on every replica.
//! * [`PartitionedView`] merges N partition views back into one
//!   [`KbRead`]: pattern scans k-way merge the per-partition cursors
//!   (disjoint key spaces make the flat merge exact), so a query
//!   executed over the merged view is byte-identical to one executed
//!   over the monolithic snapshot the partitions were cut from.

use std::sync::Arc;

use crate::builder::KbCore;
use crate::fact::Fact;
use crate::idtable::TripleIds;
use crate::labels::LabelStore;
use crate::read::{Groups, KbRead};
use crate::sameas::SameAsStore;
use crate::segment::{DeltaSegment, SegmentedSnapshot};
use crate::snapshot::{FrozenIndexes, KbSnapshot};
use crate::taxonomy::Taxonomy;

/// Which of `partitions` slices owns `subject`.
///
/// FNV-1a over the subject string, reduced mod `partitions`. Hashing
/// the *string* rather than a `TermId` makes the assignment a pure
/// function of the subject name: the router and the partitioner agree
/// without sharing a dictionary, and the mapping survives re-interning.
pub fn subject_partition(subject: &str, partitions: usize) -> usize {
    debug_assert!(partitions > 0, "partition count must be positive");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in subject.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % partitions as u64) as usize
}

/// Slices a base snapshot into `partitions` disjoint snapshots by
/// subject hash.
///
/// Every partition clones the full dictionary, source table, taxonomy,
/// sameAs classes and labels (ids stay global); only the fact table is
/// split. Fact rows are copied verbatim — retracted rows included, so a
/// partition's `fact_for` visibility answers match the monolith's — and
/// each partition freezes its own permutation indexes over its slice.
///
/// Deterministic: a pure function of the input snapshot, so two routers
/// partitioning the same snapshot agree on every placement.
pub fn partition_snapshot(base: &KbSnapshot, partitions: usize) -> Vec<KbSnapshot> {
    assert!(partitions > 0, "partition count must be positive");
    let template = KbCore {
        dict: base.core().dict.clone(),
        sources: base.core().sources.clone(),
        ..KbCore::default()
    };
    let mut cores: Vec<KbCore> = (0..partitions).map(|_| template.clone()).collect();
    for f in &base.core().facts {
        let subject = base.core().dict.resolve(f.triple.s).expect("fact subject is interned");
        let core = &mut cores[subject_partition(subject, partitions)];
        if !f.is_retracted() {
            core.live += 1;
        }
        core.push(f.clone());
    }
    cores
        .into_iter()
        .map(|core| {
            let indexes = FrozenIndexes::build(&core.facts);
            KbSnapshot::from_parts(
                core,
                base.taxonomy().clone(),
                base.sameas().clone(),
                base.labels().clone(),
                indexes,
            )
        })
        .collect()
}

/// Splits a frozen delta segment into `partitions` per-partition deltas
/// by subject hash.
///
/// `view` must be the merged view the delta was frozen against (it
/// resolves subject ids below the delta's extension range). The
/// extension tables are replicated into every output — a partition
/// whose fact slice is empty still extends its term and source space,
/// keeping all replicas aligned with the global id space — and each
/// fact row keeps the New/Shadow/Tombstone kind the monolithic freeze
/// assigned, which subject colocation makes exactly right for the
/// owning partition.
pub fn partition_delta<K: KbRead + ?Sized>(
    delta: &DeltaSegment,
    view: &K,
    partitions: usize,
) -> Vec<DeltaSegment> {
    assert!(partitions > 0, "partition count must be positive");
    let mut facts: Vec<Vec<Fact>> = vec![Vec::new(); partitions];
    let mut kinds: Vec<Vec<crate::segment::FactKind>> = vec![Vec::new(); partitions];
    for (f, k) in delta.facts.iter().zip(&delta.kinds) {
        let local = f.triple.s.0.checked_sub(delta.first_term);
        let subject = local
            .and_then(|i| delta.ext_terms.resolve(i))
            .or_else(|| view.resolve(f.triple.s))
            .expect("delta subject is interned in the view or the delta");
        let p = subject_partition(subject, partitions);
        facts[p].push(f.clone());
        kinds[p].push(*k);
    }
    facts
        .into_iter()
        .zip(kinds)
        .map(|(facts, kinds)| {
            let indexes = FrozenIndexes::build_with_tombstones(&facts);
            let by_triple = TripleIds::of(&facts);
            DeltaSegment::from_parts(
                delta.ext_terms.clone(),
                delta.first_term,
                delta.ext_sources.clone(),
                delta.first_source,
                facts,
                kinds,
                by_triple,
                indexes,
            )
        })
        .collect()
}

/// N partition views merged back into one coherent [`KbRead`].
///
/// Because partitions hold disjoint triple sets (subject colocation)
/// and share the global term/source id space, the merge is exact and
/// cheap: dictionary lookups delegate to partition 0 (every partition
/// holds the full dictionary), point lookups probe the owning
/// partition's hash maps, and [`matching_iter`](KbRead::matching_iter)
/// k-way merges one cursor per segment across all partitions — within a
/// partition the base→delta cursor order preserves shadowing and
/// tombstone semantics, across partitions keys never collide, so the
/// merged scan yields exactly the monolithic scan's fact sequence.
///
/// This is what the scatter path of a partitioned router executes
/// over: one plan, one execution, results byte-identical to a
/// single-service oracle by construction.
#[derive(Debug, Clone)]
pub struct PartitionedView {
    parts: Vec<Arc<SegmentedSnapshot>>,
    live: usize,
}

impl PartitionedView {
    /// Merges partition views. All partitions must share the global
    /// term/source id space (as produced by [`partition_snapshot`] plus
    /// aligned [`partition_delta`] installs).
    pub fn new(parts: Vec<Arc<SegmentedSnapshot>>) -> Self {
        assert!(!parts.is_empty(), "a partitioned view needs at least one partition");
        debug_assert!(
            parts.iter().all(|p| p.term_count() == parts[0].term_count()),
            "partitions disagree on the term space"
        );
        let live = parts.iter().map(|p| p.len()).sum();
        Self { parts, live }
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.parts.len()
    }

    /// One partition's view.
    pub fn part(&self, i: usize) -> &Arc<SegmentedSnapshot> {
        &self.parts[i]
    }
}

/// One group per partition, partition 0 first.
impl KbRead for PartitionedView {
    #[inline]
    fn groups(&self) -> Groups<'_> {
        Groups::partitions(&self.parts)
    }

    // Every partition replicates the full term space and the
    // base-level taxonomy/sameAs/label stores; partition 0 answers.
    fn term_count(&self) -> usize {
        self.parts[0].term_count()
    }

    fn taxonomy(&self) -> &Taxonomy {
        self.parts[0].taxonomy()
    }

    fn sameas(&self) -> &SameAsStore {
        self.parts[0].sameas()
    }

    fn labels(&self) -> &LabelStore {
        self.parts[0].labels()
    }

    fn len(&self) -> usize {
        self.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KbBuilder, Triple, TriplePattern};

    fn sample() -> KbSnapshot {
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "founded", "Apple_Inc");
        b.assert_str("Steve_Wozniak", "founded", "Apple_Inc");
        b.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
        b.assert_str("San_Francisco", "locatedIn", "United_States");
        b.assert_str("Apple_Inc", "headquarteredIn", "Cupertino");
        b.assert_str("Cupertino", "locatedIn", "United_States");
        b.freeze()
    }

    fn merged_view(base: &KbSnapshot, n: usize) -> PartitionedView {
        let parts = partition_snapshot(base, n)
            .into_iter()
            .map(|p| Arc::new(SegmentedSnapshot::from_base(p.into_shared())))
            .collect();
        PartitionedView::new(parts)
    }

    fn all_triples<K: KbRead>(kb: &K) -> Vec<Triple> {
        kb.iter().map(|f| f.triple).collect()
    }

    #[test]
    fn hash_is_stable_and_in_range() {
        // The string hash must never change: partition layouts persist
        // implicitly in which replica owns which subject.
        assert_eq!(subject_partition("Steve_Jobs", 1), 0);
        let p4 = subject_partition("Steve_Jobs", 4);
        assert!(p4 < 4);
        assert_eq!(p4, subject_partition("Steve_Jobs", 4));
        // Different strings should spread (not a correctness
        // requirement, but a canary for a degenerate hash).
        let spread: std::collections::BTreeSet<usize> =
            (0..64).map(|i| subject_partition(&format!("entity_{i}"), 4)).collect();
        assert!(spread.len() > 1);
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let base = sample();
        for n in [1usize, 2, 3, 4] {
            let parts = partition_snapshot(&base, n);
            let total: usize = parts.iter().map(|p| p.len()).sum();
            assert_eq!(total, base.len());
            for (i, p) in parts.iter().enumerate() {
                for f in p.facts() {
                    let s = p.resolve(f.triple.s).unwrap();
                    assert_eq!(subject_partition(s, n), i, "fact in the wrong partition");
                    assert!(base.contains(&f.triple));
                }
                // The full dictionary and source table are replicated.
                assert_eq!(p.term_count(), base.term_count());
            }
        }
    }

    #[test]
    fn merged_view_scans_byte_identical_to_the_monolith() {
        let base = sample();
        let located = base.term("locatedIn").unwrap();
        let jobs = base.term("Steve_Jobs").unwrap();
        for n in [1usize, 2, 3, 4] {
            let view = merged_view(&base, n);
            assert_eq!(view.len(), base.len());
            assert_eq!(all_triples(&view), all_triples(&base));
            for pat in [
                TriplePattern::any(),
                TriplePattern::with_p(located),
                TriplePattern::with_s(jobs),
                TriplePattern::with_o(base.term("United_States").unwrap()),
            ] {
                let got: Vec<Triple> = view.triples_iter(&pat).collect();
                let want: Vec<Triple> = base.triples_iter(&pat).collect();
                assert_eq!(got, want, "pattern scan diverged at n={n}");
                assert_eq!(view.count_matching(&pat), base.count_matching(&pat));
            }
            let mut table: Vec<Triple> = view.facts().map(|f| f.triple).collect();
            let mut want: Vec<Triple> = base.facts().map(|f| f.triple).collect();
            table.sort();
            want.sort();
            assert_eq!(table, want);
        }
    }

    #[test]
    fn partitioned_delta_installs_match_the_monolithic_stack() {
        let base = sample();
        let oracle = SegmentedSnapshot::from_base(base.clone().into_shared());
        // A delta that adds a new subject (new term), shadows an
        // existing fact and tombstones another.
        let mut b = KbBuilder::new();
        b.assert_str("Tim_Cook", "worksAt", "Apple_Inc");
        b.assert_str("Steve_Jobs", "founded", "Apple_Inc");
        b.retract_str("Steve_Jobs", "bornIn", "San_Francisco");
        let jobs = base.term("Steve_Jobs").unwrap();
        let born = base.term("bornIn").unwrap();
        let sf = base.term("San_Francisco").unwrap();
        let delta = Arc::new(b.freeze_delta(&oracle));
        let oracle = oracle.with_delta(Arc::clone(&delta));

        for n in [1usize, 2, 3] {
            let before = merged_view(&base, n);
            let split = partition_delta(delta.as_ref(), &before, n);
            assert_eq!(split.len(), n);
            let total: usize = split.iter().map(|d| d.facts.len()).sum();
            assert_eq!(total, delta.facts.len());
            let parts: Vec<Arc<SegmentedSnapshot>> = split
                .into_iter()
                .enumerate()
                .map(|(i, d)| Arc::new(before.part(i).with_delta(Arc::new(d))))
                .collect();
            let after = PartitionedView::new(parts);
            assert_eq!(after.len(), oracle.len());
            assert_eq!(all_triples(&after), all_triples(&oracle));
            assert_eq!(after.term_count(), oracle.term_count());
            // The tombstoned triple is gone everywhere.
            assert!(!after.contains(&Triple::new(jobs, born, sf)));
        }
    }
}
