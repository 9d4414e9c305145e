//! [`KbRead`]: the read surface shared by every view of a knowledge
//! base — the mutable [`KbBuilder`], the immutable
//! [`KbSnapshot`](crate::KbSnapshot), a layered
//! [`SegmentedSnapshot`] and a
//! [`PartitionedView`](crate::PartitionedView).
//!
//! Consumers (NED, analytics, query execution, serialization, the CLI)
//! are written against this trait, never against a concrete index
//! layout, so the storage engine can evolve — and callers can switch
//! between the builder and frozen snapshots — without touching them.
//!
//! A view says only which sorted runs it is made of
//! ([`groups`](KbRead::groups)); this module owns how runs combine.
//! A *group* is one base run under a stack of delta runs, oldest →
//! newest, all over one term/source id space; a view is an ordered
//! list of groups holding disjoint triple sets over a replicated id
//! space. The whole merge rule follows: within a group the **newest run
//! holding a triple wins** and a retracted winner (tombstone)
//! **suppresses** it; across groups triples **never collide**, so
//! groups simply concatenate (fact tables, fact ids) or interleave by
//! key (index scans), and the first group answers for the id space.
//!
//! The primitive is [`matching_iter`](KbRead::matching_iter): one
//! contiguous index range scan per run, merged and streamed as
//! `&Fact`s. Everything else (`matching`, counts, `objects`/`subjects`,
//! `degree`, `neighbors`, time-travel, path joins, statistics) is a
//! provided method built on it.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use crate::builder::{KbBuilder, KbCore};
use crate::fact::{Fact, Triple};
use crate::ids::{FactId, TermId};
use crate::idtable::{IdTable, EMPTY};
use crate::labels::LabelStore;
use crate::pattern::TriplePattern;
use crate::sameas::SameAsStore;
use crate::segment::{stack_get, stack_name, DeltaSegment, SegmentedSnapshot};
use crate::snapshot::{
    FrozenIndexes, LiveFactsIter, MatchBatches, MatchIter, MatchingAtIter, SegCursor, TriplesIter,
};
use crate::stats::KbStats;
use crate::taxonomy::Taxonomy;
use crate::time::TimePoint;
use crate::SourceId;

/// The permutation indexes of a group's base run: already frozen, or
/// a builder's cache that the first scan fills.
#[derive(Debug, Clone, Copy)]
enum BaseIndexes<'a> {
    Frozen(&'a FrozenIndexes),
    OnFirstScan(&'a KbBuilder),
}

/// One base run under its delta stack (oldest → newest). Opaque, like
/// [`Groups`], whose items these are.
#[derive(Debug, Clone, Copy)]
pub struct Group<'a> {
    pub(crate) core: &'a KbCore,
    indexes: BaseIndexes<'a>,
    pub(crate) deltas: &'a [Arc<DeltaSegment>],
    /// The deltas' stack table of extension terms.
    terms: &'a IdTable,
}

impl<'a> Group<'a> {
    pub(crate) fn new(
        core: &'a KbCore,
        indexes: &'a FrozenIndexes,
        deltas: &'a [Arc<DeltaSegment>],
        terms: &'a IdTable,
    ) -> Self {
        Self { core, indexes: BaseIndexes::Frozen(indexes), deltas, terms }
    }

    /// The group's fact tables in fact-id order: base, then each delta.
    pub(crate) fn tables(self) -> impl Iterator<Item = &'a [Fact]> {
        std::iter::once(&self.core.facts[..]).chain(self.deltas.iter().map(|d| &d.facts[..]))
    }

    /// The newest run's entry for `t`, retracted or not.
    #[inline]
    fn entry(self, t: &Triple) -> Option<&'a Fact> {
        self.deltas.iter().rev().find_map(|d| d.fact_local(t)).or_else(|| self.core.entry(t))
    }

    /// A cursor over the base run's range for `pattern`, plus the
    /// scan's post-filter.
    #[inline]
    fn base_cursor(self, pattern: &TriplePattern) -> (SegCursor<'a>, Option<TriplePattern>) {
        let indexes = match self.indexes {
            BaseIndexes::Frozen(ix) => ix,
            BaseIndexes::OnFirstScan(builder) => builder.indexes(),
        };
        indexes.cursor(pattern, &self.core.facts)
    }

    /// One cursor per delta run, oldest → newest.
    #[inline]
    fn delta_cursors(self, pattern: &TriplePattern) -> impl Iterator<Item = SegCursor<'a>> {
        let pattern = *pattern;
        self.deltas.iter().map(move |d| d.indexes.cursor(&pattern, &d.facts).0)
    }
}

/// The sorted runs a view is made of: its groups, in order. Opaque —
/// views build it, [`KbRead`]'s provided methods consume it; iterating
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct Groups<'a> {
    first: Option<Group<'a>>,
    rest: &'a [Arc<SegmentedSnapshot>],
}

impl<'a> Groups<'a> {
    /// A single group.
    pub(crate) fn one(group: Group<'a>) -> Self {
        Self { first: Some(group), rest: &[] }
    }

    /// A builder's single run, whose indexes the first scan freezes.
    pub(crate) fn unfrozen(builder: &'a KbBuilder) -> Self {
        let indexes = BaseIndexes::OnFirstScan(builder);
        Self::one(Group { core: &builder.core, indexes, deltas: &[], terms: &EMPTY })
    }

    /// One group per partition (at least one).
    pub(crate) fn partitions(parts: &'a [Arc<SegmentedSnapshot>]) -> Self {
        Self { first: None, rest: parts }
    }

    /// Takes the first group, which answers for the shared term/source
    /// id space and leads every merged scan.
    #[inline]
    fn first(&mut self) -> Group<'a> {
        self.next().expect("a view has at least one group")
    }
}

impl<'a> Iterator for Groups<'a> {
    type Item = Group<'a>;

    #[inline]
    fn next(&mut self) -> Option<Group<'a>> {
        if let Some(g) = self.first.take() {
            return Some(g);
        }
        let (part, rest) = self.rest.split_first()?;
        self.rest = rest;
        Some(part.group())
    }
}

/// Read-only access to a knowledge base: terms, facts, pattern
/// queries, taxonomy, sameAs, labels and statistics.
///
/// Term access is exposed as [`term`](Self::term) /
/// [`resolve`](Self::resolve) / [`term_count`](Self::term_count) rather
/// than a concrete dictionary handle, so a layered view (a
/// [`SegmentedSnapshot`], whose terms are the base dictionary's and
/// then its deltas', filed in one stack table) answers without
/// materializing one merged dictionary: a lookup asks the base and
/// then at most that table, a resolve the base and then the one delta
/// whose id range holds the id.
///
/// Object-safe: `&dyn KbRead` supports the full pattern-query surface.
/// Joins are `kb-query`'s job.
pub trait KbRead {
    // -- required: what the view is made of -----------------------------

    /// The sorted runs this view is made of (see [`Groups`]).
    fn groups(&self) -> Groups<'_>;

    /// Number of distinct terms interned in this view. Its own method
    /// (not derived from [`groups`](Self::groups)) so a lazily opened
    /// base answers from a count prefix without faulting.
    fn term_count(&self) -> usize;

    /// Subclass-of DAG over class terms.
    fn taxonomy(&self) -> &Taxonomy;

    /// owl:sameAs equivalence classes.
    fn sameas(&self) -> &SameAsStore;

    /// Multilingual labels and the reverse surface-form index.
    fn labels(&self) -> &LabelStore;

    /// Number of live (non-retracted) facts.
    fn len(&self) -> usize;

    /// Faults in and verifies any lazily loaded regions backing this
    /// view, surfacing cold corruption as a typed error instead of a
    /// mid-query panic. A no-op (always `Ok`) for fully resident views.
    fn prefault(&self) -> Result<(), crate::StoreError> {
        Ok(())
    }

    // -- provided: the merge over groups and runs -----------------------

    /// Looks up an already-interned term: the base dictionary, then the
    /// stack table of the deltas' extension terms.
    fn term(&self, term: &str) -> Option<TermId> {
        let g = self.groups().first();
        g.core.dict.get(term).or_else(|| stack_get(g.terms, g.deltas, term))
    }

    /// Resolves a term id back to its string: the base dictionary, then
    /// the delta whose id range holds it.
    fn resolve(&self, id: TermId) -> Option<&str> {
        let g = self.groups().first();
        let terms = || stack_name(g.deltas, id.0, |d| (d.first_term, &d.ext_terms));
        g.core.dict.resolve(id).or_else(terms)
    }

    /// Resolves a provenance source id back to its name: the base's
    /// sources, then the delta whose id range holds it.
    fn source_name(&self, id: SourceId) -> Option<&str> {
        let g = self.groups().first();
        let sources = || stack_name(g.deltas, id.0, |d| (d.first_source, &d.ext_sources));
        g.core.source_name(id).or_else(sources)
    }

    /// Looks up a fact by id (retracted facts remain addressable). Ids
    /// address the concatenated fact tables: the first group's base,
    /// then its deltas in stack order, then the next group's.
    fn fact(&self, id: FactId) -> Option<&Fact> {
        let mut idx = id.index();
        for table in self.groups().flat_map(Group::tables) {
            if let Some(f) = table.get(idx) {
                return Some(f);
            }
            idx -= table.len();
        }
        None
    }

    /// Looks up a live fact by triple — `O(1)` hash probes, so bulk
    /// existence checks (e.g. KB fusion) never touch the indexes.
    fn fact_for(&self, t: &Triple) -> Option<&Fact> {
        self.groups().find_map(|g| g.entry(t)).filter(|f| !f.is_retracted())
    }

    /// Iterates over all live facts in fact-table (insertion) order —
    /// the cheapest full scan, used by whole-KB aggregation that needs
    /// no particular order. Each group's base facts stream first, then
    /// each of its deltas', with shadowed and retracted entries
    /// skipped.
    fn facts(&self) -> LiveFactsIter<'_> {
        LiveFactsIter::new(self.groups())
    }

    /// Streams the live facts matching `pattern` in permutation-index
    /// order: one binary-searched contiguous range per run, k-way
    /// merged (see [`MatchIter`]). A single run with no deltas is one
    /// cursor and no allocation.
    fn matching_iter(&self, pattern: &TriplePattern) -> MatchIter<'_> {
        // Cursor order is run age within a group (base, then deltas
        // oldest → newest — the last holder of a key wins), groups
        // back to back.
        let mut groups = self.groups();
        let first = groups.first();
        let (head, filter) = first.base_cursor(pattern);
        let mut rest: Vec<SegCursor<'_>> = first.delta_cursors(pattern).collect();
        for g in groups {
            rest.push(g.base_cursor(pattern).0);
            rest.extend(g.delta_cursors(pattern));
        }
        MatchIter::new(head, rest, filter)
    }

    // -- provided: facts ------------------------------------------------

    /// Whether the store holds no live facts.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the triple is present and live.
    fn contains(&self, t: &Triple) -> bool {
        self.fact_for(t).is_some()
    }

    /// Iterates over all live facts in SPO order (streaming).
    fn iter(&self) -> MatchIter<'_> {
        self.matching_iter(&TriplePattern::any())
    }

    // -- provided: queries ----------------------------------------------

    /// All live facts matching the pattern, materialized. Prefer
    /// [`matching_iter`](Self::matching_iter) in hot paths.
    fn matching(&self, pattern: &TriplePattern) -> Vec<&Fact> {
        self.matching_iter(pattern).collect()
    }

    /// Like [`matching`](Self::matching) but returns only the triples.
    fn matching_triples(&self, pattern: &TriplePattern) -> Vec<Triple> {
        self.triples_iter(pattern).collect()
    }

    /// Streams the triples matching `pattern`.
    fn triples_iter(&self, pattern: &TriplePattern) -> TriplesIter<'_> {
        TriplesIter(self.matching_iter(pattern))
    }

    /// Count of live facts matching the pattern — `O(log n)` for every
    /// shape except `s?o`, with no result allocation.
    fn count_matching(&self, pattern: &TriplePattern) -> usize {
        self.matching_iter(pattern).exact_count()
    }

    /// Facts matching the pattern that are valid at `point`: facts with
    /// no temporal scope always qualify (they are assumed timeless);
    /// scoped facts qualify when their span contains the point — the
    /// time-travel query of YAGO2-style temporal KBs.
    fn matching_at(&self, pattern: &TriplePattern, point: &TimePoint) -> Vec<&Fact> {
        self.matching_at_iter(pattern, point).collect()
    }

    /// Streaming form of [`matching_at`](Self::matching_at).
    fn matching_at_iter(&self, pattern: &TriplePattern, point: &TimePoint) -> MatchingAtIter<'_> {
        MatchingAtIter { inner: self.matching_iter(pattern), point: *point }
    }

    /// Degree of a term: number of live facts where it appears as
    /// subject plus those where it appears as object. Used by NED
    /// coherence and popularity priors.
    fn degree(&self, t: TermId) -> usize {
        self.count_matching(&TriplePattern::with_s(t))
            + self.count_matching(&TriplePattern::with_o(t))
    }

    /// Neighboring entities of `t` (subjects/objects of facts touching
    /// it, excluding `t` itself), deduplicated.
    fn neighbors(&self, t: TermId) -> Vec<TermId> {
        let mut out: Vec<TermId> = Vec::new();
        out.extend(self.triples_iter(&TriplePattern::with_s(t)).map(|tr| tr.o));
        out.extend(self.triples_iter(&TriplePattern::with_o(t)).map(|tr| tr.s));
        out.sort_unstable();
        out.dedup();
        out.retain(|&x| x != t);
        out
    }

    // -- provided: statistics -------------------------------------------

    /// Per-predicate fact counts, sorted by descending count then name —
    /// the relation histogram reported alongside KB statistics. Walks
    /// the fact table directly (no index or hash lookups).
    fn predicate_histogram(&self) -> Vec<(String, usize)> {
        let mut counts: HashMap<TermId, usize> = HashMap::new();
        for f in self.facts() {
            *counts.entry(f.triple.p).or_insert(0) += 1;
        }
        let mut out: Vec<(String, usize)> = counts
            .into_iter()
            .filter_map(|(p, n)| self.resolve(p).map(|s| (s.to_string(), n)))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Computes summary statistics over the current contents. A single
    /// pass over the fact table — no per-fact index traffic.
    fn stats(&self) -> KbStats {
        let mut distinct_subjects: BTreeSet<TermId> = BTreeSet::new();
        let mut distinct_predicates: BTreeSet<TermId> = BTreeSet::new();
        let mut conf_sum = 0.0;
        let mut temporal = 0usize;
        for f in self.facts() {
            distinct_subjects.insert(f.triple.s);
            distinct_predicates.insert(f.triple.p);
            conf_sum += f.confidence;
            if f.span.is_some() {
                temporal += 1;
            }
        }
        let n = self.len();
        KbStats {
            terms: self.term_count(),
            facts: n,
            subjects: distinct_subjects.len(),
            predicates: distinct_predicates.len(),
            classes: self.taxonomy().class_count(),
            subclass_edges: self.taxonomy().edge_count(),
            sameas_classes: self.sameas().class_count(),
            labels: self.labels().label_count(),
            temporal_facts: temporal,
            mean_confidence: if n == 0 { 0.0 } else { conf_sum / n as f64 },
        }
    }
}

/// Vectorized extension of [`KbRead`]: the same pattern queries, but
/// emitting columnar batches of ~[`BATCH_ROWS`](crate::BATCH_ROWS) rows instead of single
/// tuples. Blanket-implemented for every `KbRead`, so any view —
/// monolithic snapshot, segmented stack, mutable builder — serves
/// batches; only the monolithic unfiltered path is specially
/// vectorized (decoded frame windows spliced straight into the output
/// columns), the rest fall back to the tuple merge internally.
pub trait KbReadBatch: KbRead {
    /// Batch form of [`KbRead::matching_iter`]: columnar
    /// [`TripleBatch`](crate::snapshot::TripleBatch)es of matching
    /// triples, in the same order the tuple iterator yields them.
    fn matching_batches(&self, pattern: &TriplePattern) -> MatchBatches<'_> {
        MatchBatches::new(self.matching_iter(pattern))
    }
}

impl<K: KbRead + ?Sized> KbReadBatch for K {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KbBuilder, KbSnapshot};

    fn snap() -> KbSnapshot {
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "founded", "Apple_Inc");
        b.assert_str("Steve_Wozniak", "founded", "Apple_Inc");
        b.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
        b.assert_str("San_Francisco", "locatedIn", "United_States");
        b.assert_str("Apple_Inc", "headquarteredIn", "Cupertino");
        b.freeze()
    }

    #[test]
    fn trait_is_object_safe_for_pattern_queries() {
        let s = snap();
        let dyn_kb: &dyn KbRead = &s;
        let jobs = dyn_kb.term("Steve_Jobs").unwrap();
        assert_eq!(dyn_kb.matching(&TriplePattern::with_s(jobs)).len(), 2);
        assert_eq!(dyn_kb.degree(jobs), 2);
        assert_eq!(dyn_kb.stats().facts, 5);
    }

    #[test]
    fn facts_table_scan_agrees_with_index_scan() {
        let mut b = KbBuilder::new();
        b.assert_str("c", "r", "d");
        b.assert_str("a", "r", "b");
        let t = Triple::new(b.term("c").unwrap(), b.term("r").unwrap(), b.term("d").unwrap());
        b.retract(t);
        let s = b.freeze();
        let table: Vec<Triple> = s.facts().map(|f| f.triple).collect();
        let mut indexed: Vec<Triple> = s.iter().map(|f| f.triple).collect();
        assert_eq!(table.len(), 1);
        indexed.sort();
        let mut sorted_table = table.clone();
        sorted_table.sort();
        assert_eq!(indexed, sorted_table);
    }
}
