//! Layered snapshots: an immutable base [`KbSnapshot`] plus an ordered
//! stack of small [`DeltaSegment`]s, served as one coherent view by
//! [`SegmentedSnapshot`] — the LSM-style answer to the curation-vs-
//! freshness tension of continuously maintained KBs (NELL's 24/7 loop,
//! Wikidata's live edits): a hundred-fact update must not cost a
//! hundred-thousand-fact index rebuild.
//!
//! Design:
//!
//! * Every segment keeps its own frozen SPO/POS/OSP permutation arrays.
//!   A delta's arrays cover only *its* facts, so freezing one is
//!   `O(d log d)` in the delta size — independent of the base.
//! * Term and source ids are **global**: a delta's builder re-interns
//!   against the view it stacks on
//!   ([`KbBuilder::freeze_delta`](crate::KbBuilder::freeze_delta)), so
//!   unknown terms continue the view's dense id space and every segment
//!   speaks the same [`TermId`] language. `with_delta` enforces the
//!   sequential-stacking contract.
//! * Queries k-way merge the per-segment index slices (see
//!   [`MatchIter`](crate::MatchIter)): at each key the *newest* holding
//!   segment wins, which implements both evidence shadowing (a delta's
//!   noisy-or-merged fact replaces the base's) and retraction
//!   (tombstones — confidence-zero facts indexed only in deltas —
//!   suppress the key).
//! * The [`Compactor`] folds the delta stack back into a monolithic
//!   base off the serving path once the stack grows past a size ratio,
//!   bounding merge fan-in.

use std::sync::Arc;

use crate::builder::{KbBuilder, KbCore};
use crate::dict::Dictionary;
use crate::fact::{Fact, Triple};
use crate::ids::{FactId, TermId};
use crate::idtable::TripleIds;
use crate::labels::LabelStore;
use crate::read::{Group, Groups, KbRead};
use crate::sameas::SameAsStore;
use crate::snapshot::{FrozenIndexes, IndexStats, KbSnapshot};
use crate::taxonomy::Taxonomy;
use crate::SourceId;

/// How a delta fact relates to the view it was frozen against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FactKind {
    /// Triple not visible in the underlying view: a net-new fact.
    New,
    /// Triple already visible: this entry shadows the older segment's
    /// copy with the fact as the delta leaves it — merged into that
    /// copy, or fresh where the delta's builder retracted the triple
    /// first.
    Shadow,
    /// Retraction of a view-visible triple (confidence zero).
    Tombstone,
}

/// One immutable increment of a segmented view: facts over *global*
/// term/source ids, the extension of the dictionary and source table
/// those facts needed, and the delta's own frozen permutation indexes
/// (tombstones included, so the merge sees their keys).
///
/// Built by [`KbBuilder::freeze_delta`](crate::KbBuilder::freeze_delta);
/// installed by [`SegmentedSnapshot::with_delta`].
#[derive(Debug)]
pub struct DeltaSegment {
    /// Terms unknown to the underlying view, in allocation order: global
    /// term id `first_term + i` is this table's id `i`.
    pub(crate) ext_terms: Dictionary,
    /// First term id this segment allocates (== the view's term count
    /// at freeze time — the sequential-stacking contract).
    pub(crate) first_term: u32,
    /// Provenance sources unknown to the underlying view.
    pub(crate) ext_sources: Vec<String>,
    pub(crate) first_source: u32,
    /// The delta's facts (new, shadow and tombstone entries alike),
    /// over global ids.
    pub(crate) facts: Vec<Fact>,
    /// Parallel to `facts`.
    pub(crate) kinds: Vec<FactKind>,
    /// Every row of `facts`, filed by its triple.
    pub(crate) by_triple: TripleIds,
    /// Frozen permutation arrays over `facts`, tombstones included.
    pub(crate) indexes: FrozenIndexes,
    /// Distinct predicates this delta touches (including tombstones),
    /// sorted — the unit of cache invalidation upstream.
    touched: Vec<TermId>,
    new_facts: usize,
    shadowed: usize,
    tombstones: usize,
    /// Net change to the view's live-fact count (`new - tombstoned`).
    net_live: isize,
}

impl DeltaSegment {
    /// See [`KbBuilder::freeze_delta`](crate::KbBuilder::freeze_delta).
    pub(crate) fn from_builder(builder: KbBuilder, view: &SegmentedSnapshot) -> Self {
        let obs = kb_obs::global();
        let span = obs.span("store.delta.build_us");
        let core = builder.core;

        // Re-intern the builder's dictionary against the view; unknown
        // terms continue the view's dense id space in first-seen order.
        let first_term = view.term_count() as u32;
        let mut ext_terms = Dictionary::new();
        let remap: Vec<TermId> = core
            .dict
            .iter()
            .map(|(_, term)| {
                view.term(term).unwrap_or_else(|| TermId(first_term + ext_terms.intern(term).0))
            })
            .collect();

        let first_source = view.source_count() as u32;
        let mut ext_sources: Vec<String> = Vec::new();
        let source_remap: Vec<SourceId> = core
            .sources
            .iter()
            .map(|name| {
                view.source_id(name).unwrap_or_else(|| {
                    let id = SourceId(first_source + ext_sources.len() as u32);
                    ext_sources.push(name.clone());
                    id
                })
            })
            .collect();

        let mut facts = Vec::with_capacity(core.facts.len());
        let mut kinds = Vec::with_capacity(core.facts.len());
        for (i, f) in core.facts.iter().enumerate() {
            let t = &f.triple;
            let fact = Fact {
                triple: Triple::new(remap[t.s.index()], remap[t.p.index()], remap[t.o.index()]),
                source: source_remap[f.source.0 as usize],
                ..f.clone()
            };
            // Retracting what nobody can see is a no-op; a retraction in
            // this builder forgot the view's copy; anything else merges
            // into it.
            let (fact, kind) = match view.fact_for(&fact.triple) {
                None if f.is_retracted() => continue,
                None => (fact, FactKind::New),
                Some(_) if f.is_retracted() => (fact, FactKind::Tombstone),
                Some(_) if core.reset.contains(&FactId(i as u32)) => (fact, FactKind::Shadow),
                Some(seen) => (seen.merged(fact), FactKind::Shadow),
            };
            facts.push(fact);
            kinds.push(kind);
        }

        // The builder's triples are distinct and the remap is injective,
        // so `from_parts` derives the counters exactly.
        let indexes = FrozenIndexes::build_with_tombstones(&facts);
        let by_triple = TripleIds::of(&facts);
        let delta = Self::from_parts(
            ext_terms,
            first_term,
            ext_sources,
            first_source,
            facts,
            kinds,
            by_triple,
            indexes,
        );
        span.stop();
        obs.counter("store.delta.facts").add(delta.facts.len() as u64);
        delta
    }

    /// Rebuilds a delta segment from its parts (see
    /// [`segment_io`](crate::segment_io)): extension tables, the fact
    /// table with its parallel kind column and its triple table (built by
    /// the caller, who also checks it for duplicates), and the frozen
    /// permutation indexes. The touched predicates and entry counters
    /// are recomputed here, so the on-disk format never stores anything
    /// a reader could disagree with.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        ext_terms: Dictionary,
        first_term: u32,
        ext_sources: Vec<String>,
        first_source: u32,
        facts: Vec<Fact>,
        kinds: Vec<FactKind>,
        by_triple: TripleIds,
        indexes: FrozenIndexes,
    ) -> Self {
        debug_assert_eq!(facts.len(), kinds.len());
        let (mut new_facts, mut shadowed, mut tombstones) = (0usize, 0usize, 0usize);
        for k in &kinds {
            match k {
                FactKind::New => new_facts += 1,
                FactKind::Shadow => shadowed += 1,
                FactKind::Tombstone => tombstones += 1,
            }
        }
        let net_live = new_facts as isize - tombstones as isize;
        let mut touched: Vec<TermId> = facts.iter().map(|f| f.triple.p).collect();
        touched.sort_unstable();
        touched.dedup();
        Self {
            ext_terms,
            first_term,
            ext_sources,
            first_source,
            facts,
            kinds,
            by_triple,
            indexes,
            touched,
            new_facts,
            shadowed,
            tombstones,
            net_live,
        }
    }

    /// Total entries in this delta (new + shadow + tombstone).
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Whether the delta carries no entries at all.
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Net-new facts (triples invisible in the underlying view).
    pub fn new_facts(&self) -> usize {
        self.new_facts
    }

    /// Evidence-merge entries shadowing an older segment's fact.
    pub fn shadowed(&self) -> usize {
        self.shadowed
    }

    /// Retractions of view-visible triples.
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Net change to the live-fact count when this delta is installed.
    pub fn net_live(&self) -> isize {
        self.net_live
    }

    /// Distinct predicates this delta touches (sorted) — shadow and
    /// tombstone predicates included, since both change query results.
    /// This is the unit of partial cache invalidation in the serving
    /// layer.
    pub fn touched_predicates(&self) -> &[TermId] {
        &self.touched
    }

    /// The net-new live facts, for incremental statistics maintenance
    /// (shadows only adjust confidence; tombstones subtract, which
    /// cost-model consumers may approximate away).
    pub fn new_facts_iter(&self) -> impl Iterator<Item = &Fact> {
        self.facts.iter().zip(&self.kinds).filter(|(_, k)| **k == FactKind::New).map(|(f, _)| f)
    }

    /// The retraction entries (view-visible triples this delta hides),
    /// for incremental statistics maintenance.
    pub fn tombstones_iter(&self) -> impl Iterator<Item = &Fact> {
        self.facts
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| **k == FactKind::Tombstone)
            .map(|(f, _)| f)
    }

    /// Every entry in the delta — new, shadow and tombstone alike —
    /// paired with its [`FactKind`]. Incremental view maintenance walks
    /// this to turn one install into a signed set of fact changes
    /// (`New` = +1, `Tombstone` = −1, `Shadow` = −old/+new).
    pub fn entries_iter(&self) -> impl Iterator<Item = (&Fact, FactKind)> {
        self.facts.iter().zip(self.kinds.iter().copied())
    }

    /// First term id this segment allocates; every id at or above it
    /// names a term the underlying view had never seen.
    pub fn first_term(&self) -> TermId {
        TermId(self.first_term)
    }

    /// Whether this delta has an entry (of any kind) for the triple.
    pub(crate) fn contains_triple(&self, t: &Triple) -> bool {
        self.by_triple.get(&self.facts, t).is_some()
    }

    /// The delta's entry for a triple, tombstones included.
    #[inline]
    pub(crate) fn fact_local(&self, t: &Triple) -> Option<&Fact> {
        self.by_triple.get(&self.facts, t).map(|id| &self.facts[id.index()])
    }

    /// A term this delta added to the id space.
    pub(crate) fn term_local(&self, term: &str) -> Option<TermId> {
        self.ext_terms.get(term).map(|id| TermId(self.first_term + id.0))
    }

    /// Resolves an id this delta allocated.
    #[inline]
    pub(crate) fn resolve_local(&self, id: TermId) -> Option<&str> {
        self.ext_terms.resolve(TermId(id.0.checked_sub(self.first_term)?))
    }

    /// Resolves a source id this delta allocated.
    pub(crate) fn source_name_local(&self, id: SourceId) -> Option<&str> {
        self.ext_sources.get(id.0.checked_sub(self.first_source)? as usize).map(String::as_str)
    }

    /// Size and compression accounting for this delta's permutation
    /// indexes.
    pub fn index_stats(&self) -> IndexStats {
        self.indexes.stats()
    }
}

/// A layered, immutable view: one base [`KbSnapshot`] plus zero or more
/// [`DeltaSegment`]s, served through [`KbRead`] exactly like a
/// monolithic snapshot — consumers (NED, linkage, analytics, rules, the
/// query engine) cannot tell the difference.
///
/// Installing a delta is `O(1)` sharing: [`with_delta`] clones the
/// `Arc` stack and pushes one more segment. With an empty stack every
/// query takes the monolithic fast path, so wrapping a snapshot via
/// [`from_base`] costs nothing on the read path.
///
/// ```
/// use std::sync::Arc;
/// use kb_store::{KbBuilder, KbRead, SegmentedSnapshot, TriplePattern};
///
/// let mut b = KbBuilder::new();
/// b.assert_str("Steve_Jobs", "founded", "Apple_Inc");
/// let view = SegmentedSnapshot::from_base(b.freeze().into_shared());
///
/// let mut d = KbBuilder::new();
/// d.assert_str("Tim_Cook", "worksAt", "Apple_Inc");
/// let view = view.with_delta(Arc::new(d.freeze_delta(&view)));
///
/// assert_eq!(view.len(), 2);
/// let apple = view.term("Apple_Inc").unwrap();
/// assert_eq!(view.count_matching(&TriplePattern::with_o(apple)), 2);
/// ```
///
/// [`with_delta`]: Self::with_delta
/// [`from_base`]: Self::from_base
#[derive(Debug, Clone)]
pub struct SegmentedSnapshot {
    base: Arc<KbSnapshot>,
    /// Delta stack, oldest → newest.
    deltas: Vec<Arc<DeltaSegment>>,
}

impl SegmentedSnapshot {
    /// Wraps a monolithic snapshot as a single-segment view. Derived
    /// totals (live count, term/source totals) are computed on demand
    /// rather than stored, so wrapping a lazily opened base touches
    /// nothing on disk.
    pub fn from_base(base: Arc<KbSnapshot>) -> Self {
        Self { base, deltas: Vec::new() }
    }

    /// Total provenance sources across the base and every delta. Cheap
    /// on a lazy base (count-prefix read, no core fault).
    pub(crate) fn source_count(&self) -> usize {
        self.base.source_count() + self.deltas.iter().map(|d| d.ext_sources.len()).sum::<usize>()
    }

    /// Returns a new view with `delta` stacked on top (the receiver is
    /// untouched — readers holding it keep their consistent view).
    ///
    /// # Panics
    ///
    /// If the delta was not frozen against exactly this view's term and
    /// source id space (the sequential-stacking contract: freeze each
    /// delta against the view it will be installed on).
    pub fn with_delta(&self, delta: Arc<DeltaSegment>) -> Self {
        self.try_with_delta(delta).expect("delta was frozen against a different view")
    }

    /// Non-panicking [`with_delta`](Self::with_delta): a delta that
    /// violates the sequential-stacking contract is rejected as a typed
    /// [`StoreError::Corrupt`](crate::StoreError::Corrupt) instead of a panic. This is the install
    /// path recovery uses — a damaged or out-of-order on-disk delta must
    /// degrade gracefully, never crash the reopening process.
    pub(crate) fn try_with_delta(
        &self,
        delta: Arc<DeltaSegment>,
    ) -> Result<Self, crate::StoreError> {
        use crate::error::SegmentRegion;
        let term_total = self.term_count();
        let source_total = self.source_count();
        if delta.first_term as usize != term_total || delta.first_source as usize != source_total {
            return Err(crate::StoreError::Corrupt {
                region: SegmentRegion::DeltaMeta,
                detail: format!(
                    "delta stacks at term {}/source {} but the view has {} terms/{} sources",
                    delta.first_term, delta.first_source, term_total, source_total
                ),
            });
        }
        let mut deltas = self.deltas.clone();
        deltas.push(delta);
        Ok(Self { base: Arc::clone(&self.base), deltas })
    }

    /// The base segment.
    pub fn base(&self) -> &Arc<KbSnapshot> {
        &self.base
    }

    /// Number of delta segments stacked on the base.
    pub fn delta_count(&self) -> usize {
        self.deltas.len()
    }

    /// The delta stack, oldest → newest.
    pub fn deltas(&self) -> &[Arc<DeltaSegment>] {
        &self.deltas
    }

    /// The view as a run group (faults a lazily opened base).
    #[inline]
    pub(crate) fn group(&self) -> Group<'_> {
        Group::new(self.base.core(), &self.base.indexes, &self.deltas)
    }

    /// Size and compression accounting for every segment's permutation
    /// indexes (base plus deltas).
    pub fn index_stats(&self) -> IndexStats {
        let mut st = self.base.index_stats();
        for d in &self.deltas {
            st.absorb(&d.index_stats());
        }
        st
    }

    /// Looks up a provenance source by name across all segments.
    pub(crate) fn source_id(&self, name: &str) -> Option<SourceId> {
        if let Some(&id) = self.base.core().source_lookup.get(name) {
            return Some(id);
        }
        for d in &self.deltas {
            if let Some(pos) = d.ext_sources.iter().position(|s| s == name) {
                return Some(SourceId(d.first_source + pos as u32));
            }
        }
        None
    }

    /// Folds the delta stack into a fresh monolithic [`KbSnapshot`]
    /// (replaying each delta's entries over a clone of the base, then
    /// rebuilding the permutation indexes once). Runs off the serving
    /// path — readers keep using the layered view until the compacted
    /// snapshot is installed.
    pub fn compact(&self) -> KbSnapshot {
        let obs = kb_obs::global();
        let span = obs.span("store.compact_us");
        let mut core: KbCore = self.base.core().clone();
        for d in &self.deltas {
            for (_, term) in d.ext_terms.iter() {
                let id = core.dict.intern(term);
                debug_assert_eq!(id.index() + 1, core.dict.len());
            }
            for name in &d.ext_sources {
                core.register_source(name);
            }
            for f in &d.facts {
                // Shadow entries already carry the view-merged
                // confidence/span and tombstones carry zero, so the
                // replay *overwrites* rather than re-merges.
                match core.by_triple.get(&core.facts, &f.triple) {
                    Some(id) => core.facts[id.index()] = f.clone(),
                    None => {
                        core.push(f.clone());
                    }
                }
            }
        }
        core.live = core.facts.iter().filter(|f| !f.is_retracted()).count();
        debug_assert_eq!(core.live, self.len());
        let indexes = FrozenIndexes::build(&core.facts);
        span.stop();
        obs.counter("store.compactions").inc();
        KbSnapshot::from_parts(
            core,
            self.base.taxonomy().clone(),
            self.base.sameas().clone(),
            self.base.labels().clone(),
            indexes,
        )
    }
}

/// One group: the base under the delta stack.
impl KbRead for SegmentedSnapshot {
    #[inline]
    fn groups(&self) -> Groups<'_> {
        Groups::one(self.group())
    }

    /// Total terms across the base and every delta's extension table.
    /// Cheap on a lazy base (count-prefix read, no core fault), which
    /// is what keeps delta stacking checks off the open path's cost.
    fn term_count(&self) -> usize {
        self.base.term_count() + self.deltas.iter().map(|d| d.ext_terms.len()).sum::<usize>()
    }

    // Taxonomy, sameAs and labels are served from the base segment:
    // deltas carry facts and provenance only, so ontology-level changes
    // ride the next compaction/rebuild.
    fn taxonomy(&self) -> &Taxonomy {
        self.base.taxonomy()
    }

    fn sameas(&self) -> &SameAsStore {
        self.base.sameas()
    }

    fn labels(&self) -> &LabelStore {
        self.base.labels()
    }

    fn len(&self) -> usize {
        let net: isize = self.deltas.iter().map(|d| d.net_live()).sum();
        (self.base.len() as isize + net) as usize
    }

    fn prefault(&self) -> Result<(), crate::StoreError> {
        self.base.prefault()?;
        for d in &self.deltas {
            d.indexes.prefault()?;
        }
        Ok(())
    }
}

/// Size-ratio compaction policy: fold the delta stack into the base
/// once it grows past `max_deltas` segments or `max_ratio` of the base
/// size in entries — the classic LSM trade between install latency
/// (deltas stay cheap) and read amplification (merge fan-in stays
/// bounded).
#[derive(Debug, Clone, Copy)]
pub struct Compactor {
    /// Compact when more than this many deltas are stacked.
    pub max_deltas: usize,
    /// Compact when total delta entries exceed this fraction of the
    /// base's live facts.
    pub max_ratio: f64,
}

impl Default for Compactor {
    fn default() -> Self {
        Self { max_deltas: 4, max_ratio: 0.2 }
    }
}

impl Compactor {
    /// Whether the view's delta stack has outgrown the policy.
    pub(crate) fn should_compact(&self, view: &SegmentedSnapshot) -> bool {
        if view.delta_count() == 0 {
            return false;
        }
        if view.delta_count() > self.max_deltas {
            return true;
        }
        let delta_entries: usize = view.deltas().iter().map(|d| d.len()).sum();
        delta_entries as f64 > self.max_ratio * view.base().len().max(1) as f64
    }

    /// Folds the stack into a fresh monolithic snapshot (see
    /// [`SegmentedSnapshot::compact`]).
    pub fn compact(&self, view: &SegmentedSnapshot) -> KbSnapshot {
        view.compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{TimePoint, TimeSpan};
    use crate::{KbBuilder, TriplePattern};

    fn base_view() -> SegmentedSnapshot {
        let mut b = KbBuilder::new();
        b.assert_str("Steve_Jobs", "founded", "Apple_Inc");
        b.assert_str("Steve_Wozniak", "founded", "Apple_Inc");
        b.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
        b.assert_str("San_Francisco", "locatedIn", "United_States");
        SegmentedSnapshot::from_base(b.freeze().into_shared())
    }

    #[test]
    fn empty_stack_answers_like_the_base() {
        let view = base_view();
        let base = Arc::clone(view.base());
        assert_eq!(view.len(), base.len());
        assert_eq!(view.term_count(), base.term_count());
        let founded = view.term("founded").unwrap();
        assert_eq!(
            view.matching_triples(&TriplePattern::with_p(founded)),
            base.matching_triples(&TriplePattern::with_p(founded)),
        );
        assert_eq!(view.facts().count(), base.facts().count());
    }

    #[test]
    fn delta_adds_new_facts_and_terms() {
        let view = base_view();
        let mut d = KbBuilder::new();
        d.assert_str("Tim_Cook", "worksAt", "Apple_Inc");
        d.assert_str("Steve_Jobs", "founded", "NeXT");
        let delta = d.freeze_delta(&view);
        assert_eq!(delta.new_facts(), 2);
        assert_eq!(delta.shadowed(), 0);
        let view = view.with_delta(Arc::new(delta));

        assert_eq!(view.len(), 6);
        // New terms continue the base id space and resolve both ways.
        let cook = view.term("Tim_Cook").unwrap();
        assert!(cook.index() >= view.base().term_count());
        assert_eq!(view.resolve(cook), Some("Tim_Cook"));
        // Merged scans see base + delta facts in key order.
        let founded = view.term("founded").unwrap();
        let apple = view.term("Apple_Inc").unwrap();
        assert_eq!(view.count_matching(&TriplePattern::with_p(founded)), 3);
        assert_eq!(view.count_matching(&TriplePattern::with_o(apple)), 3);
        // A ?p scan walks the POS index, so the merge must preserve
        // global (o, s) order within the predicate bucket.
        let keys: Vec<_> = view
            .matching_triples(&TriplePattern::with_p(founded))
            .iter()
            .map(|t| (t.o, t.s))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "merge preserves index key order");
    }

    #[test]
    fn shadow_entry_wins_over_the_base() {
        let view = base_view();
        let jobs = view.term("Steve_Jobs").unwrap();
        let founded = view.term("founded").unwrap();
        let apple = view.term("Apple_Inc").unwrap();
        let t = Triple::new(jobs, founded, apple);
        let base_conf = view.fact_for(&t).unwrap().confidence;

        let mut d = KbBuilder::new();
        let f = Fact {
            triple: Triple::new(d.intern("Steve_Jobs"), d.intern("founded"), d.intern("Apple_Inc")),
            confidence: 0.5,
            source: SourceId::DEFAULT,
            span: Some(TimeSpan::at(TimePoint::year(1976))),
        };
        d.add_fact(f);
        let delta = d.freeze_delta(&view);
        assert_eq!(delta.shadowed(), 1);
        assert_eq!(delta.net_live(), 0);
        let view = view.with_delta(Arc::new(delta));

        // Live count unchanged; confidence noisy-or merged; the span
        // arrives because the base fact had none.
        assert_eq!(view.len(), 4);
        let merged = view.fact_for(&t).unwrap();
        let expect = 1.0 - (1.0 - base_conf) * 0.5;
        assert!((merged.confidence - expect).abs() < 1e-12);
        assert!(merged.span.is_some());
        // The triple surfaces exactly once through every read path.
        assert_eq!(view.count_matching(&TriplePattern::exact(t)), 1);
        assert_eq!(view.facts().filter(|f| f.triple == t).count(), 1);
        assert!(view
            .facts()
            .find(|f| f.triple == t)
            .is_some_and(|f| (f.confidence - expect).abs() < 1e-12));
    }

    #[test]
    fn tombstone_hides_a_base_fact_until_resurrected() {
        let view = base_view();
        let jobs = view.term("Steve_Jobs").unwrap();
        let born = view.term("bornIn").unwrap();
        let sf = view.term("San_Francisco").unwrap();
        let t = Triple::new(jobs, born, sf);

        let mut d = KbBuilder::new();
        d.retract_str("Steve_Jobs", "bornIn", "San_Francisco");
        let delta = d.freeze_delta(&view);
        assert_eq!(delta.tombstones(), 1);
        assert_eq!(delta.net_live(), -1);
        let view2 = view.with_delta(Arc::new(delta));

        assert_eq!(view2.len(), 3);
        assert!(!view2.contains(&t));
        assert!(view2.fact_for(&t).is_none());
        assert_eq!(view2.count_matching(&TriplePattern::with_p(born)), 0);
        assert!(view2.facts().all(|f| f.triple != t));
        // The original view is untouched (readers keep their version).
        assert!(view.contains(&t));

        // A later delta resurrects the triple as a net-new fact.
        let mut d2 = KbBuilder::new();
        d2.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
        let delta2 = d2.freeze_delta(&view2);
        assert_eq!(delta2.new_facts(), 1);
        let view3 = view2.with_delta(Arc::new(delta2));
        assert_eq!(view3.len(), 4);
        assert!(view3.contains(&t));
        assert_eq!(view3.count_matching(&TriplePattern::with_p(born)), 1);
    }

    #[test]
    fn retracting_an_invisible_triple_is_dropped_from_the_delta() {
        let view = base_view();
        let mut d = KbBuilder::new();
        d.retract_str("Nobody", "knows", "This");
        let delta = d.freeze_delta(&view);
        assert!(delta.is_empty());
        assert_eq!(delta.net_live(), 0);
        // The phantom terms were still interned as extension terms —
        // harmless, they just resolve.
        let view = view.with_delta(Arc::new(delta));
        assert_eq!(view.len(), 4);
    }

    #[test]
    fn touched_predicates_cover_all_entry_kinds() {
        let view = base_view();
        let mut d = KbBuilder::new();
        d.assert_str("Tim_Cook", "worksAt", "Apple_Inc"); // new
        d.assert_str("Steve_Jobs", "founded", "Apple_Inc"); // shadow
        d.retract_str("Steve_Jobs", "bornIn", "San_Francisco"); // tombstone
        let delta = d.freeze_delta(&view);
        let touched = delta.touched_predicates();
        assert_eq!(touched.len(), 3);
        for p in ["worksAt", "founded", "bornIn"] {
            let id = view.term(p).or_else(|| delta.term_local(p)).unwrap();
            assert!(touched.contains(&id), "{p} missing from touched set");
        }
        assert!(touched.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");
    }

    #[test]
    fn stacking_contract_is_enforced() {
        let view = base_view();
        let mut d = KbBuilder::new();
        d.assert_str("Tim_Cook", "worksAt", "Apple_Inc");
        let delta = Arc::new(d.freeze_delta(&view));
        let stacked = view.with_delta(Arc::clone(&delta));
        // Installing the same delta again would collide with the term
        // space it already extended.
        let err = std::panic::catch_unwind(|| stacked.with_delta(delta));
        assert!(err.is_err());
    }

    #[test]
    fn compaction_preserves_the_merged_view() {
        let view = base_view();
        let mut d1 = KbBuilder::new();
        d1.assert_str("Tim_Cook", "worksAt", "Apple_Inc");
        d1.assert_str("Steve_Jobs", "founded", "Apple_Inc"); // shadow
        let view = view.with_delta(Arc::new(d1.freeze_delta(&view)));
        let mut d2 = KbBuilder::new();
        d2.retract_str("San_Francisco", "locatedIn", "United_States");
        d2.assert_str("Tim_Cook", "bornIn", "Mobile_Alabama");
        let view = view.with_delta(Arc::new(d2.freeze_delta(&view)));

        let compacted = view.compact();
        assert_eq!(compacted.len(), view.len());
        assert_eq!(compacted.term_count(), view.term_count());
        // Identical answers, shape by shape.
        assert_eq!(
            compacted.matching_triples(&TriplePattern::any()),
            view.matching_triples(&TriplePattern::any()),
        );
        for f in view.facts() {
            let c = compacted.fact_for(&f.triple).expect("fact survives compaction");
            assert!((c.confidence - f.confidence).abs() < 1e-12);
            assert_eq!(c.span, f.span);
        }
        // Term ids are preserved exactly, so downstream TermId holders
        // stay valid across the swap.
        for id in 0..view.term_count() as u32 {
            assert_eq!(compacted.resolve(TermId(id)), view.resolve(TermId(id)));
        }
    }

    #[test]
    fn compactor_policy_triggers_on_ratio_and_count() {
        let c = Compactor::default();
        let mut view = base_view();
        assert!(!c.should_compact(&view));
        // 4 base facts → one 1-entry delta already exceeds 20%.
        let mut d = KbBuilder::new();
        d.assert_str("Tim_Cook", "worksAt", "Apple_Inc");
        view = view.with_delta(Arc::new(d.freeze_delta(&view)));
        assert!(c.should_compact(&view));
        let strict = Compactor { max_deltas: 0, max_ratio: 1.0 };
        assert!(strict.should_compact(&view));
        let loose = Compactor { max_deltas: 8, max_ratio: 1.0 };
        assert!(!loose.should_compact(&view));
    }
}
