//! The write side of the storage engine: `KbCore` (the shared
//! dictionary + fact-table state) and the mutable [`KbBuilder`].
//!
//! The construction/serving split mirrors the batch-curation vs
//! read-serving architecture of the industrial KBs the tutorial surveys
//! (YAGO-style batch builds): writers funnel into a builder, readers
//! get an immutable [`KbSnapshot`]. Code that interleaves reads with
//! writes queries the builder itself through [`KbRead`]: its
//! permutation indexes are frozen on the first scan after a structural
//! write and cached until the next one.
//!
//! Ingest is a pure function of the write order: terms get ids in
//! first-interned order and facts in first-added order, so the same
//! writes in the same order give the same builder, bit for bit.

use std::sync::OnceLock;

use crate::fact::{Fact, Triple};
use crate::fx::{FxHashMap, FxHashSet};
use crate::ids::{FactId, TermId};
use crate::idtable::TripleIds;
use crate::labels::LabelStore;
use crate::read::{Groups, KbRead};
use crate::sameas::SameAsStore;
use crate::snapshot::{FrozenIndexes, KbSnapshot};
use crate::taxonomy::Taxonomy;
use crate::Dictionary;
use crate::SourceId;

/// The mutable heart shared by every write-side type: term dictionary,
/// append-only fact table, the triple table that files its rows by
/// triple, and provenance sources. Holds *no* permutation indexes —
/// those belong to the read side ([`FrozenIndexes`]) and are built by
/// freezing.
#[derive(Debug, Default, Clone)]
pub(crate) struct KbCore {
    pub(crate) dict: Dictionary,
    pub(crate) facts: Vec<Fact>,
    /// Every row of `facts`, filed by its triple.
    pub(crate) by_triple: TripleIds,
    pub(crate) sources: Vec<String>,
    pub(crate) source_lookup: FxHashMap<String, SourceId>,
    /// Number of live (non-retracted) facts, maintained incrementally
    /// so `len()` stays O(1) without any index.
    pub(crate) live: usize,
    /// Entries a retraction in this core reset: what they hold now
    /// owes nothing to an older segment's copy of the triple, so a
    /// delta freeze writes them as they stand instead of merging.
    pub(crate) reset: FxHashSet<FactId>,
}

impl KbCore {
    /// An empty core with the default `"asserted"` source registered.
    pub(crate) fn new() -> Self {
        let mut core = Self::default();
        let id = core.register_source("asserted");
        debug_assert_eq!(id, SourceId::DEFAULT);
        core
    }

    pub(crate) fn register_source(&mut self, name: &str) -> SourceId {
        if let Some(&id) = self.source_lookup.get(name) {
            return id;
        }
        let id = SourceId(self.sources.len() as u32);
        self.sources.push(name.to_string());
        self.source_lookup.insert(name.to_string(), id);
        id
    }

    pub(crate) fn source_name(&self, id: SourceId) -> Option<&str> {
        self.sources.get(id.0 as usize).map(|s| s.as_str())
    }

    /// Adds or merges a fact under the write contract of
    /// [`KbBuilder::add_fact`]. Returns the entry's id and whether the
    /// live key set changed (a new or revived triple, or a retraction).
    pub(crate) fn add_fact(&mut self, fact: Fact) -> (FactId, bool) {
        debug_assert!((0.0..=1.0).contains(&fact.confidence));
        if fact.is_retracted() {
            return self.retract(fact.triple);
        }
        if let Some(id) = self.by_triple.get(&self.facts, &fact.triple) {
            let existing = &mut self.facts[id.index()];
            let revived = existing.is_retracted();
            *existing = existing.merged(fact);
            self.live += usize::from(revived);
            return (id, revived);
        }
        self.live += 1;
        (self.push(fact), true)
    }

    /// Appends a row for a triple no row holds yet and files it in the
    /// triple table. Leaves `live` to the caller.
    pub(crate) fn push(&mut self, fact: Fact) -> FactId {
        let id = FactId(self.facts.len() as u32);
        self.facts.push(fact);
        self.by_triple.file_last(&self.facts);
        id
    }

    /// Retracts a triple: its entry's confidence drops to zero, and an
    /// absent triple gets a confidence-zero *tombstone* entry (never
    /// counted live), which in a delta build shadows an older segment's
    /// copy. Returns the entry's id and whether the triple was live.
    pub(crate) fn retract(&mut self, t: Triple) -> (FactId, bool) {
        let id = match self.by_triple.get(&self.facts, &t) {
            Some(id) => id,
            None => self.push(Fact { confidence: 0.0, ..Fact::asserted(t) }),
        };
        self.reset.insert(id);
        let fact = &mut self.facts[id.index()];
        let was_live = !fact.is_retracted();
        fact.confidence = 0.0;
        self.live -= usize::from(was_live);
        (id, was_live)
    }

    /// This run's entry for a triple, retracted or not.
    #[inline]
    pub(crate) fn entry(&self, t: &Triple) -> Option<&Fact> {
        self.by_triple.get(&self.facts, t).map(|id| &self.facts[id.index()])
    }
}

/// The mutable knowledge base: accepts ingest, answers [`KbRead`]
/// queries on permutation indexes frozen lazily and cached between
/// structural writes, and freezes into an immutable, `Arc`-shareable
/// [`KbSnapshot`].
///
/// Evidence merges do not change the index key set, so they keep the
/// cache; new facts, retractions and resurrections drop it. Queries
/// take `&self` and the cache is a
/// `OnceLock`, so the builder stays `Sync`; for long-lived read sharing
/// detach a snapshot.
///
/// ```
/// use kb_store::{KbBuilder, KbRead, TriplePattern};
///
/// let mut b = KbBuilder::new();
/// b.assert_str("Steve_Jobs", "founded", "Apple_Inc");
/// assert_eq!(b.count_matching(&TriplePattern::any()), 1);
/// let snap = b.freeze();
/// assert_eq!(snap.count_matching(&TriplePattern::any()), 1);
/// ```
#[derive(Debug, Clone)]
pub struct KbBuilder {
    pub(crate) core: KbCore,
    /// Subclass-of DAG over class terms.
    pub taxonomy: Taxonomy,
    /// owl:sameAs equivalence classes over entity terms.
    pub sameas: SameAsStore,
    /// Multilingual labels and the reverse surface-form index.
    pub labels: LabelStore,
    /// Read indexes over `core.facts`, built by the first scan after a
    /// structural write.
    frozen: OnceLock<FrozenIndexes>,
}

impl Default for KbBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl KbBuilder {
    /// Creates an empty builder with the default `"asserted"` source.
    pub fn new() -> Self {
        Self {
            core: KbCore::new(),
            taxonomy: Taxonomy::default(),
            sameas: SameAsStore::default(),
            labels: LabelStore::default(),
            frozen: OnceLock::new(),
        }
    }

    /// Interns a term, returning its id.
    pub fn intern(&mut self, term: &str) -> TermId {
        self.core.dict.intern(term)
    }

    /// The term dictionary (a builder holds exactly one).
    pub fn dictionary(&self) -> &Dictionary {
        &self.core.dict
    }

    /// Registers (or retrieves) a provenance source by name.
    pub fn register_source(&mut self, name: &str) -> SourceId {
        self.core.register_source(name)
    }

    /// All registered sources in id order.
    pub fn sources(&self) -> impl Iterator<Item = (SourceId, &str)> {
        self.core.sources.iter().enumerate().map(|(i, s)| (SourceId(i as u32), s.as_str()))
    }

    /// Adds a fully-confident fact with default provenance.
    pub fn add_triple(&mut self, s: TermId, p: TermId, o: TermId) -> FactId {
        self.add_fact(Fact::asserted(Triple::new(s, p, o)))
    }

    /// Convenience: interns three strings and asserts the triple.
    pub fn assert_str(&mut self, s: &str, p: &str, o: &str) -> FactId {
        let t = Triple::new(self.intern(s), self.intern(p), self.intern(o));
        self.add_fact(Fact::asserted(t))
    }

    /// Adds a fact under the write contract, which every configuration
    /// — this builder, a delta stack, its compaction, WAL replay —
    /// answers alike:
    ///
    /// * evidence for a live triple *merges*: confidence combines by
    ///   noisy-or (`1 - (1-a)(1-b)`), the span is kept if it was known,
    ///   and provenance keeps the earlier source;
    /// * a retraction forgets: evidence for a retracted or tombstoned
    ///   triple starts it fresh, with this fact's confidence, source and
    ///   span;
    /// * a fact of confidence zero is a retraction
    ///   ([`retract`](Self::retract)).
    ///
    /// Returns the id of the (new or merged) fact.
    pub fn add_fact(&mut self, fact: Fact) -> FactId {
        let (id, structural) = self.core.add_fact(fact);
        if structural {
            self.frozen.take();
        }
        id
    }

    /// Retracts a triple: it stops matching queries and the next
    /// assertion of it starts fresh. A triple this builder does not hold
    /// gets a *tombstone*, which in a delta build
    /// ([`freeze_delta`](Self::freeze_delta)) hides the view's copy and
    /// in a plain [`freeze`](Self::freeze) is inert. Fact ids stay
    /// valid. Returns whether the triple was live here.
    pub fn retract(&mut self, t: Triple) -> bool {
        let (_, was_live) = self.core.retract(t);
        if was_live {
            self.frozen.take();
        }
        was_live
    }

    /// Interns three strings and [`retract`](Self::retract)s the triple.
    pub fn retract_str(&mut self, s: &str, p: &str, o: &str) -> bool {
        let t = Triple::new(self.intern(s), self.intern(p), self.intern(o));
        self.retract(t)
    }

    /// The read indexes, frozen now if a structural write dropped them.
    pub(crate) fn indexes(&self) -> &FrozenIndexes {
        self.frozen.get_or_init(|| FrozenIndexes::build(&self.core.facts))
    }

    /// Detaches an immutable, `Arc`-shareable [`KbSnapshot`] of the
    /// current contents: clones the data and the cached indexes, which
    /// are frozen here first if cold, so a second snapshot of the same
    /// contents does not sort again.
    pub fn snapshot(&self) -> KbSnapshot {
        self.indexes();
        self.clone().freeze()
    }

    /// Freezes the builder into an immutable snapshot without copying
    /// the fact table: reuses the cached permutation indexes when warm,
    /// else sorts them once (`O(n log n)`).
    pub fn freeze(self) -> KbSnapshot {
        let indexes =
            self.frozen.into_inner().unwrap_or_else(|| FrozenIndexes::build(&self.core.facts));
        KbSnapshot::from_parts(self.core, self.taxonomy, self.sameas, self.labels, indexes)
    }

    /// Freezes the builder into a [`DeltaSegment`](crate::DeltaSegment)
    /// layered on top of `view`: terms are re-interned against the
    /// view's dictionary (unknown terms get fresh ids continuing the
    /// view's id space), facts whose triple already exists in the view
    /// become *shadow* entries carrying the evidence-merged confidence,
    /// and retractions of view-visible triples become tombstones. The
    /// resulting segment is installed with
    /// [`SegmentedSnapshot::with_delta`](crate::SegmentedSnapshot::with_delta).
    ///
    /// The builder's taxonomy, sameAs and label stores are *not* carried
    /// into the delta — segmented views serve those from the base
    /// segment until the next compaction.
    pub fn freeze_delta(self, view: &crate::SegmentedSnapshot) -> crate::DeltaSegment {
        crate::DeltaSegment::from_builder(self, view)
    }
}

/// One run, no deltas; the indexes are built by the first scan.
impl KbRead for KbBuilder {
    #[inline]
    fn groups(&self) -> Groups<'_> {
        Groups::unfrozen(self)
    }

    fn term_count(&self) -> usize {
        self.core.dict.len()
    }

    fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    fn sameas(&self) -> &SameAsStore {
        &self.sameas
    }

    fn labels(&self) -> &LabelStore {
        &self.labels
    }

    fn len(&self) -> usize {
        self.core.live
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{TimePoint, TimeSpan};
    use crate::TriplePattern;

    fn sample_kb() -> KbBuilder {
        let mut kb = KbBuilder::new();
        kb.assert_str("Steve_Jobs", "founded", "Apple_Inc");
        kb.assert_str("Steve_Wozniak", "founded", "Apple_Inc");
        kb.assert_str("Steve_Jobs", "bornIn", "San_Francisco");
        kb.assert_str("San_Francisco", "locatedIn", "United_States");
        kb.assert_str("Apple_Inc", "headquarteredIn", "Cupertino");
        kb
    }

    fn fact(triple: Triple, confidence: f64) -> Fact {
        Fact { triple, confidence, source: SourceId::DEFAULT, span: None }
    }

    #[test]
    fn builder_freeze_answers_queries() {
        let mut b = KbBuilder::new();
        b.assert_str("a", "r", "b");
        b.assert_str("a", "r", "c");
        b.assert_str("b", "r", "c");
        let snap = b.freeze();
        let a = snap.term("a").unwrap();
        let r = snap.term("r").unwrap();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.count_matching(&TriplePattern::with_s(a)), 2);
        assert_eq!(snap.count_matching(&TriplePattern::with_p(r)), 3);
    }

    #[test]
    fn add_and_query_by_every_shape() {
        let kb = sample_kb();
        let jobs = kb.term("Steve_Jobs").unwrap();
        let founded = kb.term("founded").unwrap();
        let apple = kb.term("Apple_Inc").unwrap();

        assert_eq!(kb.matching(&TriplePattern::with_s(jobs)).len(), 2);
        assert_eq!(kb.matching(&TriplePattern::with_p(founded)).len(), 2);
        assert_eq!(kb.matching(&TriplePattern::with_o(apple)).len(), 2);
        assert_eq!(kb.matching(&TriplePattern::with_sp(jobs, founded)).len(), 1);
        assert_eq!(kb.matching(&TriplePattern::with_po(founded, apple)).len(), 2);
        assert_eq!(kb.matching(&TriplePattern::with_so(jobs, apple)).len(), 1);
        assert_eq!(kb.matching(&TriplePattern::any()).len(), 5);
        let t = Triple::new(jobs, founded, apple);
        assert_eq!(kb.matching(&TriplePattern::exact(t)).len(), 1);
    }

    #[test]
    fn duplicate_adds_merge_by_noisy_or() {
        let mut kb = KbBuilder::new();
        let t = Triple::new(kb.intern("s"), kb.intern("p"), kb.intern("o"));
        kb.add_fact(fact(t, 0.5));
        kb.add_fact(fact(t, 0.5));
        assert_eq!(kb.len(), 1);
        let f = kb.fact_for(&t).unwrap();
        assert!((f.confidence - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_keeps_first_known_span() {
        let mut kb = KbBuilder::new();
        let t = Triple::new(kb.intern("a"), kb.intern("r"), kb.intern("b"));
        let span = TimeSpan::at(TimePoint::year(1976));
        kb.add_fact(fact(t, 0.4));
        kb.add_fact(Fact { span: Some(span), ..fact(t, 0.4) });
        assert_eq!(kb.fact_for(&t).unwrap().span, Some(span));
    }

    #[test]
    fn retract_hides_from_queries_and_resurrection_works() {
        let mut kb = sample_kb();
        let jobs = kb.term("Steve_Jobs").unwrap();
        let founded = kb.term("founded").unwrap();
        let apple = kb.term("Apple_Inc").unwrap();
        let t = Triple::new(jobs, founded, apple);

        assert!(kb.retract(t));
        assert!(!kb.contains(&t));
        assert_eq!(kb.len(), 4);
        assert_eq!(kb.matching(&TriplePattern::with_p(founded)).len(), 1);
        assert!(!kb.retract(t), "double retract is a no-op");

        // Re-adding resurrects the fact.
        kb.add_fact(fact(t, 0.9));
        assert!(kb.contains(&t));
        assert_eq!(kb.len(), 5);
        assert_eq!(kb.matching(&TriplePattern::with_p(founded)).len(), 2);
    }

    #[test]
    fn merge_after_read_keeps_cached_indexes_correct() {
        let mut kb = sample_kb();
        let jobs = kb.term("Steve_Jobs").unwrap();
        let founded = kb.term("founded").unwrap();
        let apple = kb.term("Apple_Inc").unwrap();
        let t = Triple::new(jobs, founded, apple);
        // Warm the cache, then merge evidence into an existing fact:
        // the cache survives, and queries see the merged confidence.
        assert_eq!(kb.matching(&TriplePattern::any()).len(), 5);
        kb.add_fact(fact(t, 0.5));
        assert!(kb.frozen.get().is_some(), "an evidence merge keeps the indexes");
        assert_eq!(kb.matching(&TriplePattern::any()).len(), 5);
        assert!(kb.fact_for(&t).unwrap().confidence > 0.999);
        // A structural add after a warm read shows up too.
        kb.assert_str("Tim_Cook", "worksAt", "Apple_Inc");
        assert!(kb.frozen.get().is_none(), "a new triple drops them");
        assert_eq!(kb.matching(&TriplePattern::any()).len(), 6);
    }

    #[test]
    fn zero_confidence_new_fact_is_a_tombstone_not_a_live_fact() {
        let mut kb = KbBuilder::new();
        let t = Triple::new(kb.intern("a"), kb.intern("b"), kb.intern("c"));
        let id = kb.add_fact(fact(t, 0.0));
        assert_eq!(kb.len(), 0);
        assert_eq!(kb.iter().count(), 0);
        assert_eq!(kb.facts().count(), 0);
        assert_eq!(kb.stats().facts, 0);
        assert!(!kb.contains(&t));
        assert!(kb.fact(id).unwrap().is_retracted(), "still addressable by id");
        let snap = kb.clone().freeze();
        assert_eq!((snap.len(), snap.iter().count(), snap.stats().facts), (0, 0, 0));
        // Later evidence revives it under the same id, and a second
        // zero-confidence fact retracts it again.
        assert_eq!(kb.add_fact(fact(t, 0.6)), id);
        assert_eq!((kb.len(), kb.iter().count()), (1, 1));
        assert_eq!(kb.add_fact(fact(t, 0.0)), id);
        assert_eq!((kb.len(), kb.iter().count()), (0, 0));
    }

    #[test]
    fn degree_and_neighbors() {
        let kb = sample_kb();
        let apple = kb.term("Apple_Inc").unwrap();
        assert_eq!(kb.degree(apple), 3);
        let names: Vec<_> =
            kb.neighbors(apple).into_iter().map(|t| kb.resolve(t).unwrap().to_string()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"Steve_Jobs".to_string()));
        assert!(names.contains(&"Cupertino".to_string()));
    }

    #[test]
    fn sources_register_and_resolve() {
        let mut kb = KbBuilder::new();
        assert_eq!(kb.source_name(SourceId::DEFAULT), Some("asserted"));
        let a = kb.register_source("wiki");
        let b = kb.register_source("wiki");
        assert_eq!(a, b);
        assert_eq!(kb.source_name(a), Some("wiki"));
        assert_eq!(kb.sources().count(), 2);
    }

    #[test]
    fn count_matching_agrees_with_matching() {
        let kb = sample_kb();
        let jobs = kb.term("Steve_Jobs").unwrap();
        let apple = kb.term("Apple_Inc").unwrap();
        for pat in [
            TriplePattern::any(),
            TriplePattern::with_s(jobs),
            TriplePattern::with_o(apple),
            TriplePattern::with_so(jobs, apple),
        ] {
            assert_eq!(kb.count_matching(&pat), kb.matching(&pat).len());
        }
    }

    #[test]
    fn stats_reflect_contents() {
        let mut kb = sample_kb();
        // Evidence with a span gives an unspanned fact its span.
        let t = kb.matching_triples(&TriplePattern::any())[0];
        kb.add_fact(Fact { span: Some(TimeSpan::since(TimePoint::year(1976))), ..fact(t, 1.0) });
        let st = kb.stats();
        assert_eq!(st.facts, 5);
        assert_eq!(st.predicates, 4);
        assert_eq!(st.temporal_facts, 1);
        assert!(st.mean_confidence > 0.99);
    }

    #[test]
    fn matching_at_filters_by_validity() {
        let mut kb = KbBuilder::new();
        let p = kb.intern("worksAt");
        let (a, b, acme) = (kb.intern("A"), kb.intern("B"), kb.intern("Acme"));
        let span = TimeSpan::between(TimePoint::year(1990), TimePoint::year(1995)).ok();
        kb.add_fact(Fact { span, ..fact(Triple::new(a, p, acme), 1.0) });
        kb.add_triple(b, p, acme); // timeless
        let pat = TriplePattern::with_p(p);
        assert_eq!(kb.matching_at(&pat, &TimePoint::year(1992)).len(), 2);
        assert_eq!(kb.matching_at(&pat, &TimePoint::year(2000)).len(), 1);
        let only = kb.matching_at(&pat, &TimePoint::year(2000));
        assert_eq!(only[0].triple.s, b);
    }

    #[test]
    fn predicate_histogram_counts_live_facts() {
        let mut kb = sample_kb();
        let hist = kb.predicate_histogram();
        assert_eq!(hist[0], ("founded".to_string(), 2));
        assert_eq!(hist.len(), 4);
        let t = kb.matching_triples(&TriplePattern::with_p(kb.term("founded").unwrap()))[0];
        kb.retract(t);
        let hist = kb.predicate_histogram();
        assert_eq!(hist.iter().find(|(p, _)| p == "founded").unwrap().1, 1);
    }

    #[test]
    fn iter_returns_all_live_facts_in_spo_order() {
        let mut kb = sample_kb();
        let all: Vec<Triple> = kb.iter().map(|f| f.triple).collect();
        assert_eq!(all.len(), 5);
        let mut sorted = all.clone();
        sorted.sort();
        assert_eq!(all, sorted);
        kb.retract(all[0]);
        assert_eq!(kb.iter().count(), 4);
    }

    #[test]
    fn snapshot_answers_like_the_live_builder() {
        let kb = sample_kb();
        let snap = kb.snapshot();
        assert!(kb.frozen.get().is_some(), "a snapshot leaves the builder's indexes warm");
        let jobs = kb.term("Steve_Jobs").unwrap();
        assert_eq!(snap.len(), kb.len());
        assert_eq!(
            snap.matching_triples(&TriplePattern::with_s(jobs)),
            kb.matching_triples(&TriplePattern::with_s(jobs)),
        );
        // freeze gives the same view without cloning, on those indexes.
        let frozen = kb.freeze();
        assert_eq!(frozen.len(), snap.len());
        assert_eq!(frozen.stats(), snap.stats());
    }

    /// Ingest is a pure function of the write order: the same facts in
    /// the same order give the same dictionary ids and fact table, with
    /// a repeated triple merged by noisy-or into its first entry.
    #[test]
    fn shard_merge_matches_serial_ingest_exactly() {
        let facts = [
            ("x", "p", "y", 0.5),
            ("y", "p", "z", 0.9),
            ("x", "p", "y", 0.5), // duplicate → noisy-or merge
            ("z", "q", "x", 0.7),
        ];
        let ingest = || {
            let mut b = KbBuilder::new();
            for &(s, p, o, c) in &facts {
                let t = Triple::new(b.intern(s), b.intern(p), b.intern(o));
                b.add_fact(fact(t, c));
            }
            b
        };
        let (a, b) = (ingest(), ingest());
        assert!(a.dictionary().iter().eq(b.dictionary().iter()));
        assert_eq!(a.core.facts, b.core.facts);
        let terms: Vec<&str> = a.dictionary().iter().map(|(_, term)| term).collect();
        assert_eq!(terms, ["x", "p", "y", "z", "q"]);
        let confidences: Vec<f64> = a.core.facts.iter().map(|f| f.confidence).collect();
        assert_eq!(confidences, [0.75, 0.9, 0.7]);
    }

    #[test]
    fn retract_then_resurrect_keeps_live_count_right() {
        let mut b = KbBuilder::new();
        let id = b.assert_str("a", "r", "b");
        let t = Triple::new(b.term("a").unwrap(), b.term("r").unwrap(), b.term("b").unwrap());
        assert_eq!(b.len(), 1);
        assert!(b.retract(t));
        assert_eq!(b.len(), 0);
        assert!(!b.retract(t));
        assert_eq!(id, b.add_fact(fact(t, 0.8)));
        assert_eq!(b.len(), 1);
    }

    /// A builder that holds nothing freezes to an empty delta, which
    /// changes no view it is stacked on.
    #[test]
    fn empty_shard_is_a_no_op() {
        let base = crate::SegmentedSnapshot::from_base(sample_kb().snapshot().into_shared());
        let delta = KbBuilder::new().freeze_delta(&base);
        assert!(delta.is_empty());
        let stacked = base.with_delta(std::sync::Arc::new(delta));
        assert_eq!(stacked.len(), base.len());
        assert_eq!(
            stacked.matching_triples(&TriplePattern::any()),
            base.matching_triples(&TriplePattern::any())
        );
    }
}
