//! The end-to-end harvesting pipeline: documents in, populated
//! knowledge base out — with document-parallel occurrence collection
//! (the "scalable distributed algorithms" of the tutorial, realized as
//! scoped threads over contiguous document chunks) and a resilience
//! layer that keeps the harvest alive on poisoned input.
//!
//! One fan-out, one body, one ingest loop: both parallel stages
//! (resilient collection and [`analyze_parallel`]) go through the
//! private `fan_out`, which is the only place that chunks, spawns and
//! joins, so output never depends on the worker count; the KB load is
//! one serial loop. [`harvest`] and [`IncrementalHarvester::bootstrap`]
//! run the same body once — `bootstrap` merely keeps the pattern model
//! and type index that body learned — and
//! [`IncrementalHarvester::harvest_batch`] reuses its collection,
//! refinement and load stages with those frozen models.
//!
//! Failure model (see DESIGN.md, "Failure model"): input is
//! quarantined, and a panic in our own code is a typed error.
//!
//! * **Quarantine** — each document is validated and then extracted
//!   once behind `catch_unwind`; a poison document lands in the
//!   dead-letter queue ([`PipelineStats::quarantined`]) instead of
//!   killing the run.
//! * **No panics across the API** — [`harvest`] returns
//!   `Result<_, PipelineError>`; a panicking worker becomes
//!   [`PipelineError::WorkerPanic`] and a panicking stage body
//!   [`PipelineError::StagePanic`].

use std::collections::HashSet;
use std::time::Instant;

use kb_corpus::{gold, Corpus, Doc};
use kb_store::{Fact, KbBuilder, SourceId, Triple};

use crate::factorgraph::{self, GibbsConfig};
use crate::facts::distant::{self, FactKey, TrainConfig};
use crate::facts::extract::{self, CandidateFact, ExtractConfig};
use crate::facts::patterns::{self, CollectConfig, PatternOccurrence};
use crate::facts::scoring::{self, ScoreConfig, TypeIndex};
use crate::reasoning::{self, SolverConfig};
use crate::resilience::{
    catch_panic, panic_payload_to_string, PipelineError, QuarantineReason, Quarantined,
};
use crate::taxonomy::induce::{self, MergedInstance};
use crate::taxonomy::{category, hearst};
use crate::temporal;

/// Which refinement stack to run after pattern extraction — the rows of
/// experiment T3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Raw pattern extraction only.
    PatternsOnly,
    /// + statistical type-aware scoring.
    Statistical,
    /// + weighted-MaxSat consistency reasoning.
    Reasoning,
    /// Statistical scoring + factor-graph joint inference.
    FactorGraph,
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct HarvestConfig {
    /// Fraction of gold facts revealed as distant-supervision seeds.
    pub seed_fraction: f64,
    /// Final acceptance threshold on candidate confidence.
    pub min_confidence: f64,
    /// Worker threads for occurrence collection.
    pub workers: usize,
    /// Refinement method.
    pub method: Method,
    /// Whether to add PrefixSpan-generalized pattern matches (extra
    /// recall on unseen paraphrases, slightly discounted confidence).
    pub generalize: bool,
    /// Occurrence collection parameters.
    pub collect: CollectConfig,
    /// Distant-supervision training parameters.
    pub train: TrainConfig,
    /// Extraction parameters.
    pub extract: ExtractConfig,
}

impl Default for HarvestConfig {
    fn default() -> Self {
        Self {
            seed_fraction: 0.25,
            min_confidence: 0.5,
            workers: 4,
            method: Method::Reasoning,
            generalize: false,
            collect: CollectConfig::default(),
            train: TrainConfig::default(),
            extract: ExtractConfig::default(),
        }
    }
}

/// Wall-clock timings and counters per stage, plus the run's
/// dead-letter queue.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Documents that survived quarantine and were processed.
    pub docs: usize,
    /// Pattern occurrences collected.
    pub occurrences: usize,
    /// (pattern, orientation, relation) entries learned.
    pub patterns_learned: usize,
    /// Candidates extracted.
    pub candidates: usize,
    /// Candidates accepted into the KB.
    pub accepted: usize,
    /// Instance assertions merged.
    pub instances: usize,
    /// Seconds spent collecting occurrences.
    pub collect_secs: f64,
    /// Seconds spent in training + extraction + refinement.
    pub infer_secs: f64,
    /// The dead-letter queue: every quarantined document with its
    /// captured failure.
    pub quarantined: Vec<Quarantined>,
}

impl PipelineStats {
    /// Number of documents in the dead-letter queue.
    pub fn quarantined_count(&self) -> usize {
        self.quarantined.len()
    }
}

/// Everything the pipeline produces.
#[derive(Debug)]
pub struct HarvestOutput {
    /// The populated knowledge base.
    pub kb: KbBuilder,
    /// All scored candidates after the configured refinement.
    pub candidates: Vec<CandidateFact>,
    /// The accepted subset (confidence ≥ threshold, reasoner-approved).
    pub accepted: Vec<CandidateFact>,
    /// Merged taxonomy instances.
    pub instances: Vec<MergedInstance>,
    /// Applied subclass edges.
    pub subclass_edges: Vec<(String, String)>,
    /// The distant-supervision seeds used (for seed-excluded evaluation).
    pub seeds: HashSet<FactKey>,
    /// Stage statistics.
    pub stats: PipelineStats,
}

/// The pipeline's one fan-out: splits `items` into at most `workers`
/// contiguous chunks, runs `work` over each chunk on its own scoped
/// thread and returns the results in chunk order, so output never
/// depends on the worker count. One worker, or fewer than two items,
/// runs inline. A panicking `work` never unwinds past here: it becomes
/// a [`PipelineError::WorkerPanic`] naming `stage`.
fn fan_out<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    stage: &'static str,
    work: impl Fn(&[T]) -> R + Sync,
) -> Result<Vec<R>, PipelineError> {
    let run = &|chunk: &[T]| catch_panic(|| work(chunk));
    let results: Vec<Result<R, String>> = if workers <= 1 || items.len() < 2 {
        vec![run(items)]
    } else {
        let chunk_size = items.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                items.chunks(chunk_size).map(|chunk| scope.spawn(move || run(chunk))).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| Err(panic_payload_to_string(p))))
                .collect()
        })
    };
    results
        .into_iter()
        .map(|r| r.map_err(|detail| PipelineError::WorkerPanic { stage, detail }))
        .collect()
}

/// The per-document analysis stage: pattern-occurrence collection plus
/// raw Open IE extraction — the pipeline's "map" work, parallelized
/// over document chunks for experiment F2. Output order is independent
/// of the worker count; worker panics surface as [`PipelineError`].
pub fn analyze_parallel<'a>(
    docs: &[&Doc],
    canonical_of: &(impl Fn(kb_corpus::EntityId) -> &'a str + Sync),
    collect_cfg: &CollectConfig,
    openie_cfg: &crate::openie::OpenIeConfig,
    workers: usize,
) -> Result<(Vec<PatternOccurrence>, Vec<crate::openie::OpenFact>), PipelineError> {
    let chunks = fan_out(docs, workers, "analyze", |chunk| {
        let mut occs = Vec::new();
        let mut open = Vec::new();
        for d in chunk {
            occs.extend(patterns::collect_occurrences(d, canonical_of, collect_cfg));
            open.extend(crate::openie::extract_raw(d, openie_cfg));
        }
        (occs, open)
    })?;
    let (occs, open): (Vec<_>, Vec<_>) = chunks.into_iter().unzip();
    Ok((occs.into_iter().flatten().collect(), open.into_iter().flatten().collect()))
}

/// What `collect_resilient` produced: the occurrences and survivors,
/// plus the dead-letter queue.
#[derive(Debug, Default)]
pub struct CollectOutcome {
    /// Occurrences from surviving documents, in serial doc order.
    pub occurrences: Vec<PatternOccurrence>,
    /// Indices (into the input slice) of documents that survived.
    pub survivors: Vec<usize>,
    /// Quarantined documents, in serial doc order.
    pub quarantined: Vec<Quarantined>,
}

/// Fault-tolerant occurrence collection: each document is validated
/// (mention spans in bounds, on char boundaries, entity ids below
/// `entity_bound`) and then extracted once behind `catch_unwind`. A
/// document that fails validation or panics is quarantined; the rest of
/// the harvest proceeds without it. Extraction is a pure function of
/// the document, so it is never retried. Output order is deterministic
/// and independent of `workers`.
pub(crate) fn collect_resilient<'a>(
    docs: &[&Doc],
    canonical_of: &(impl Fn(kb_corpus::EntityId) -> &'a str + Sync),
    cfg: &CollectConfig,
    workers: usize,
    entity_bound: u32,
) -> Result<CollectOutcome, PipelineError> {
    let per_doc = fan_out(docs, workers, "collect-resilient", |chunk| {
        chunk
            .iter()
            .map(|doc| match doc.integrity_error(entity_bound) {
                Some(defect) => Err(QuarantineReason::Defect(defect.to_string())),
                None => catch_panic(|| patterns::collect_occurrences(doc, canonical_of, cfg))
                    .map_err(QuarantineReason::Panic),
            })
            .collect::<Vec<_>>()
    })?;
    let mut out = CollectOutcome::default();
    for (i, survived) in per_doc.into_iter().flatten().enumerate() {
        match survived {
            Ok(occs) => {
                out.survivors.push(i);
                out.occurrences.extend(occs);
            }
            Err(reason) => out.quarantined.push(Quarantined {
                doc_id: docs[i].id,
                title: docs[i].title.clone(),
                reason,
            }),
        }
    }
    Ok(out)
}

/// Indices of candidates clearing the acceptance threshold.
fn threshold_filter(candidates: &[CandidateFact], min_confidence: f64) -> Vec<usize> {
    (0..candidates.len()).filter(|&i| candidates[i].confidence >= min_confidence).collect()
}

/// The refinement stage, one arm per row of experiment T3. Every
/// method but [`Method::PatternsOnly`] rescores by type first;
/// [`Method::Reasoning`] then keeps what the MaxSat solver accepts, and
/// [`Method::FactorGraph`] replaces each confidence with its marginal.
/// Returns the indices of the accepted candidates.
fn refine_candidates(
    candidates: &mut [CandidateFact],
    types: &TypeIndex,
    cfg: &HarvestConfig,
) -> Vec<usize> {
    match cfg.method {
        Method::PatternsOnly => threshold_filter(candidates, cfg.min_confidence),
        Method::Statistical => {
            scoring::apply_type_scoring(candidates, types, &ScoreConfig::default());
            threshold_filter(candidates, cfg.min_confidence)
        }
        Method::Reasoning => {
            scoring::apply_type_scoring(candidates, types, &ScoreConfig::default());
            let outcome = reasoning::reason_candidates(candidates, types, &SolverConfig::default());
            outcome
                .accepted
                .into_iter()
                .filter(|&i| candidates[i].confidence >= cfg.min_confidence)
                .collect()
        }
        Method::FactorGraph => {
            scoring::apply_type_scoring(candidates, types, &ScoreConfig::default());
            let marginals =
                factorgraph::infer_candidates(candidates, types, &GibbsConfig::default());
            for (c, m) in candidates.iter_mut().zip(marginals) {
                c.confidence = m;
            }
            threshold_filter(candidates, cfg.min_confidence)
        }
    }
}

/// Loads accepted candidates into the KB, one at a time in candidate
/// order: subject, relation and object are interned in that order, the
/// span comes from the candidate's temporal hints, and a repeated
/// triple merges under the write contract.
fn ingest_accepted(kb: &mut KbBuilder, accepted: &[CandidateFact], src: SourceId) {
    for c in accepted {
        let triple =
            Triple::new(kb.intern(&c.subject), kb.intern(&c.relation), kb.intern(&c.object));
        let span = temporal::infer_span(&c.hints);
        kb.add_fact(Fact { triple, confidence: c.confidence.min(1.0), source: src, span });
    }
}

/// Runs the full pipeline over a corpus. Never panics on poisoned
/// documents: structurally corrupt or extractor-crashing documents are
/// quarantined into [`PipelineStats::quarantined`] and the harvest
/// proceeds over the survivors.
pub fn harvest(corpus: &Corpus, cfg: &HarvestConfig) -> Result<HarvestOutput, PipelineError> {
    harvest_with_models(corpus, cfg).map(|(out, _, _)| out)
}

/// The one harvest body: [`harvest`]'s output plus the pattern model and
/// type index it learned on the way, which
/// [`IncrementalHarvester::bootstrap`] freezes for later batches.
fn harvest_with_models(
    corpus: &Corpus,
    cfg: &HarvestConfig,
) -> Result<(HarvestOutput, distant::PatternModel, TypeIndex), PipelineError> {
    let world = &corpus.world;
    let all_docs = corpus.all_docs();
    let canonical_of = |id: kb_corpus::EntityId| world.entity(id).canonical.as_str();
    let entity_bound = world.entities.len() as u32;

    // ---- Phase 1: quarantine + occurrence collection (parallel) -----
    let obs = kb_obs::global();
    let t0 = Instant::now();
    let collect_span = obs.span("harvest.phase.collect_us");
    let collected =
        collect_resilient(&all_docs, &canonical_of, &cfg.collect, cfg.workers, entity_bound)?;
    collect_span.stop();
    let collect_secs = t0.elapsed().as_secs_f64();
    let CollectOutcome { occurrences, survivors, quarantined } = collected;
    let docs: Vec<&Doc> = survivors.iter().map(|&i| all_docs[i]).collect();

    // The remaining stages run over validated survivors only; shield
    // them anyway so no unexpected panic crosses the public API.
    catch_panic(|| -> Result<_, PipelineError> {
        // ---- Phase 2: entities & classes ----------------------------
        let taxonomy_span = obs.span("harvest.phase.taxonomy_us");
        let cat = category::harvest_categories(&docs, canonical_of);
        let hearst_inst = hearst::harvest_hearst(&docs, canonical_of);
        let instances = induce::merge_instances(&[(&cat.instances, 0.9), (&hearst_inst, 0.7)]);
        let mut subclass_edges = cat.subclass_edges.clone();
        for edge in induce::induce_subclasses(&instances, 0.95, 3) {
            if !subclass_edges.contains(&edge) {
                subclass_edges.push(edge);
            }
        }
        let types = scoring::build_type_index(&instances, &subclass_edges);
        taxonomy_span.stop();

        // ---- Phase 3: distant supervision + extraction --------------
        let t1 = Instant::now();
        let extract_span = obs.span("harvest.phase.extract_us");
        let gold_facts = gold::gold_fact_strings(world);
        let seeds = distant::stratified_seeds(&gold_facts, cfg.seed_fraction);
        let model = distant::train(&occurrences, &seeds, &cfg.train);
        let mut candidates = extract_all(&occurrences, &model, cfg);
        extract_span.stop();

        // ---- Phase 4: refinement ------------------------------------
        let refine_span = obs.span("harvest.phase.refine_us");
        let accepted_idx = refine_candidates(&mut candidates, &types, cfg);
        let accepted: Vec<CandidateFact> =
            accepted_idx.iter().map(|&i| candidates[i].clone()).collect();
        refine_span.stop();
        let infer_secs = t1.elapsed().as_secs_f64();

        // ---- Phase 5: load KB ---------------------------------------
        let load_span = obs.span("harvest.phase.load_us");
        let mut kb = KbBuilder::new();
        let src = kb.register_source("harvest");
        induce::load_into_kb(&mut kb, &instances, &subclass_edges, "taxonomy")?;
        ingest_accepted(&mut kb, &accepted, src);
        // Surface forms from mention annotations (the anchor-text signal).
        let en = kb.labels.lang("en");
        for doc in &docs {
            for m in &doc.mentions {
                let term = kb.intern(canonical_of(m.entity));
                kb.labels.add(term, en, &m.surface);
            }
        }

        load_span.stop();

        let stats = PipelineStats {
            docs: docs.len(),
            occurrences: occurrences.len(),
            patterns_learned: model.len(),
            candidates: candidates.len(),
            accepted: accepted.len(),
            instances: instances.len(),
            collect_secs,
            infer_secs,
            quarantined,
        };
        record_pipeline_metrics(&stats);
        let out =
            HarvestOutput { kb, candidates, accepted, instances, subclass_edges, seeds, stats };
        Ok((out, model, types))
    })
    .map_err(|detail| PipelineError::StagePanic { stage: "harvest", detail })?
}

/// The extraction stage of [`harvest`] and of every
/// [`IncrementalHarvester::harvest_batch`]: the exact model's candidates,
/// plus — with [`HarvestConfig::generalize`] — the matches of its
/// PrefixSpan-generalized skeletons.
fn extract_all(
    occurrences: &[PatternOccurrence],
    model: &distant::PatternModel,
    cfg: &HarvestConfig,
) -> Vec<CandidateFact> {
    let mut candidates = extract::extract_candidates(occurrences, model, &cfg.extract);
    if cfg.generalize {
        use crate::facts::generalize::{extract_generalized, generalize, GeneralizeConfig};
        let skeletons = generalize(model, &GeneralizeConfig::default());
        let extra = extract_generalized(occurrences, model, &skeletons);
        // Merge: generalized candidates are new keys by construction
        // (they only cover occurrences the exact model missed), but a
        // fact can be seen both ways through different occurrences.
        let mut by_key: std::collections::HashMap<_, usize> =
            candidates.iter().enumerate().map(|(i, c)| (c.key(), i)).collect();
        for g in extra {
            match by_key.get(&g.key()) {
                Some(&i) => {
                    let c = &mut candidates[i];
                    c.confidence = 1.0 - (1.0 - c.confidence) * (1.0 - g.confidence);
                    c.support += g.support;
                    c.hints.extend(g.hints);
                }
                None => {
                    by_key.insert(g.key(), candidates.len());
                    candidates.push(g);
                }
            }
        }
    }
    candidates
}

/// Publishes one harvest run's volume and dead-letter count as
/// `harvest.*` counters in the global [`kb_obs`] registry (counters
/// accumulate across runs; `kbkit metrics` resets between phases).
fn record_pipeline_metrics(stats: &PipelineStats) {
    let obs = kb_obs::global();
    obs.counter("harvest.docs.processed").add(stats.docs as u64);
    obs.counter("harvest.docs.quarantined").add(stats.quarantined.len() as u64);
    obs.counter("harvest.facts.candidates").add(stats.candidates as u64);
    obs.counter("harvest.facts.accepted").add(stats.accepted as u64);
    obs.counter("harvest.facts.rejected")
        .add(stats.candidates.saturating_sub(stats.accepted) as u64);
}

/// What one incremental batch produced: the frozen delta (ready for
/// [`SegmentedSnapshot::with_delta`] or
/// `QueryService::apply_delta`) plus the batch's volume and
/// dead-letter ledger.
///
/// [`SegmentedSnapshot::with_delta`]: kb_store::SegmentedSnapshot::with_delta
#[derive(Debug)]
pub struct BatchOutcome {
    /// The batch's accepted facts as a delta segment, frozen against
    /// the view passed to [`IncrementalHarvester::harvest_batch`].
    pub delta: kb_store::DeltaSegment,
    /// Candidates extracted from the batch.
    pub candidates: usize,
    /// Candidates accepted into the delta.
    pub accepted: usize,
    /// Pattern occurrences collected from the batch.
    pub occurrences: usize,
    /// Documents quarantined within the batch.
    pub quarantined: Vec<Quarantined>,
}

/// Incremental harvesting: freeze the *models* once, then turn each
/// later document batch into a [`kb_store::DeltaSegment`] instead of
/// rebuilding the knowledge base from scratch.
///
/// [`bootstrap`](Self::bootstrap) runs the full pipeline over an
/// initial document set — once: it is [`harvest`]'s body, keeping the
/// pattern model and type index that body learned — and returns the
/// populated base KB. [`harvest_batch`](Self::harvest_batch) then runs
/// the same stage functions over a batch with the frozen models:
/// resilient collection → extraction → refinement → load into a
/// throwaway [`KbBuilder`] that freezes as a delta against the
/// currently-served view. Batches use the statistical refinement
/// method (not the global reasoner, whose consistency constraints need
/// the whole fact set) so per-batch install cost stays proportional to
/// the batch, not the base — the periodic compaction or full rebuild
/// restores the stronger refinement.
pub struct IncrementalHarvester {
    cfg: HarvestConfig,
    model: distant::PatternModel,
    types: TypeIndex,
}

impl IncrementalHarvester {
    /// Runs the full pipeline over `corpus` (the bootstrap corpus)
    /// and freezes what it learned for later batches: the pattern model,
    /// the type index, and `cfg` with the method set to
    /// [`Method::Statistical`]. Returns the harvester plus the bootstrap
    /// output — exactly what [`harvest`] returns for the same inputs —
    /// whose `kb` becomes the segmented base.
    pub fn bootstrap(
        corpus: &Corpus,
        cfg: &HarvestConfig,
    ) -> Result<(Self, HarvestOutput), PipelineError> {
        let (out, model, types) = harvest_with_models(corpus, cfg)?;
        let cfg = HarvestConfig { method: Method::Statistical, ..cfg.clone() };
        Ok((Self { cfg, model, types }, out))
    }

    /// Harvests one document batch with the frozen models and freezes
    /// the accepted facts as a delta against `view` (which must be the
    /// currently-served [`SegmentedSnapshot`] — the sequential-stacking
    /// contract).
    ///
    /// [`SegmentedSnapshot`]: kb_store::SegmentedSnapshot
    pub fn harvest_batch(
        &self,
        world: &kb_corpus::World,
        docs: &[&Doc],
        view: &kb_store::SegmentedSnapshot,
    ) -> Result<BatchOutcome, PipelineError> {
        let canonical_of = |id: kb_corpus::EntityId| world.entity(id).canonical.as_str();
        let collected = collect_resilient(
            docs,
            &canonical_of,
            &self.cfg.collect,
            self.cfg.workers,
            world.entities.len() as u32,
        )?;
        catch_panic(|| -> Result<BatchOutcome, PipelineError> {
            let mut candidates = extract_all(&collected.occurrences, &self.model, &self.cfg);
            let accepted_idx = refine_candidates(&mut candidates, &self.types, &self.cfg);
            let accepted: Vec<CandidateFact> =
                accepted_idx.iter().map(|&i| candidates[i].clone()).collect();

            let mut b = KbBuilder::new();
            let src = b.register_source("harvest");
            ingest_accepted(&mut b, &accepted, src);
            let delta = b.freeze_delta(view);
            Ok(BatchOutcome {
                delta,
                candidates: candidates.len(),
                accepted: accepted.len(),
                occurrences: collected.occurrences.len(),
                quarantined: collected.quarantined,
            })
        })
        .map_err(|detail| PipelineError::StagePanic { stage: "harvest-batch", detail })?
    }
}

/// Evaluates accepted facts against gold, excluding the seeds from both
/// sides (we score what the system *discovered*, not what it was told).
pub fn evaluate_discovered(
    accepted: &[CandidateFact],
    gold_facts: &HashSet<FactKey>,
    seeds: &HashSet<FactKey>,
) -> gold::PrF1 {
    let predicted: HashSet<FactKey> =
        accepted.iter().map(CandidateFact::key).filter(|k| !seeds.contains(k)).collect();
    let target: HashSet<FactKey> = gold_facts.difference(seeds).cloned().collect();
    gold::pr_f1(&predicted, &target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_corpus::{CorpusConfig, EntityId, Mention};
    use kb_store::KbRead;

    fn run(method: Method) -> (Corpus, HarvestOutput) {
        let corpus = Corpus::generate(&CorpusConfig::tiny());
        let cfg = HarvestConfig { method, workers: 2, ..Default::default() };
        let out = harvest(&corpus, &cfg).expect("harvest");
        (corpus, out)
    }

    #[test]
    fn pipeline_produces_a_populated_kb() {
        let (_, out) = run(Method::Reasoning);
        assert!(out.stats.occurrences > 0);
        assert!(out.stats.candidates > 0);
        assert!(out.stats.accepted > 0);
        assert!(!out.kb.is_empty());
        assert!(out.kb.labels.label_count() > 0);
        assert!(out.kb.taxonomy.class_count() > 0);
        assert!(out.stats.quarantined.is_empty());
    }

    #[test]
    fn discovered_facts_beat_coin_flip_precision() {
        let (corpus, out) = run(Method::Reasoning);
        let gold_facts = gold::gold_fact_strings(&corpus.world);
        let m = evaluate_discovered(&out.accepted, &gold_facts, &out.seeds);
        assert!(m.precision > 0.5, "precision {}", m.precision);
        // The tiny corpus shows each rare paraphrase only once or twice,
        // so min-support filtering caps recall; the standard corpus
        // (experiment T3) reaches far higher recall.
        assert!(m.recall > 0.1, "recall {}", m.recall);
    }

    #[test]
    fn reasoning_never_loses_precision_vs_patterns_only() {
        let (corpus, po) = run(Method::PatternsOnly);
        let (_, rs) = run(Method::Reasoning);
        let gold_facts = gold::gold_fact_strings(&corpus.world);
        let m_po = evaluate_discovered(&po.accepted, &gold_facts, &po.seeds);
        let m_rs = evaluate_discovered(&rs.accepted, &gold_facts, &rs.seeds);
        assert!(
            m_rs.precision >= m_po.precision - 0.02,
            "reasoning {} vs patterns {}",
            m_rs.precision,
            m_po.precision
        );
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let corpus = Corpus::generate(&CorpusConfig::tiny());
        let out1 = harvest(&corpus, &HarvestConfig { workers: 1, ..Default::default() })
            .expect("harvest x1");
        let out4 = harvest(&corpus, &HarvestConfig { workers: 4, ..Default::default() })
            .expect("harvest x4");
        assert_eq!(out1.stats.occurrences, out4.stats.occurrences);
        let keys1: Vec<_> = out1.accepted.iter().map(CandidateFact::key).collect();
        let keys4: Vec<_> = out4.accepted.iter().map(CandidateFact::key).collect();
        assert_eq!(keys1, keys4);
        // Collection fans out over the workers; the KB must not show
        // it: same dictionary ids, same facts, same confidences.
        assert_eq!(
            kb_store::ntriples::to_string(&out1.kb),
            kb_store::ntriples::to_string(&out4.kb),
        );
    }

    /// The one ingest loop on a large candidate set with repeated
    /// triples: terms get ids in first-seen order, and a repeat merges by
    /// noisy-or in candidate order, to the bit.
    #[test]
    fn sharded_ingest_matches_serial_for_large_candidate_sets() {
        let candidates: Vec<CandidateFact> = (0..256)
            .map(|i| CandidateFact {
                subject: format!("S{}", i % 97),
                relation: format!("r{}", i % 7),
                object: format!("O{}", i % 53),
                confidence: 0.3 + 0.6 * ((i % 11) as f64 / 11.0),
                support: 1,
                docs: 1,
                patterns: 1,
                hints: Vec::new(),
            })
            .collect();
        let mut kb = KbBuilder::new();
        let src = kb.register_source("harvest");
        ingest_accepted(&mut kb, &candidates, src);

        let mut first_seen: Vec<&str> = Vec::new();
        let mut folded: std::collections::HashMap<[&str; 3], f64> = Default::default();
        for c in &candidates {
            let key = [c.subject.as_str(), c.relation.as_str(), c.object.as_str()];
            for term in key {
                if !first_seen.contains(&term) {
                    first_seen.push(term);
                }
            }
            folded
                .entry(key)
                .and_modify(|a| *a = 1.0 - (1.0 - *a) * (1.0 - c.confidence))
                .or_insert(c.confidence);
        }
        let ids: Vec<&str> = kb.dictionary().iter().map(|(_, term)| term).collect();
        assert_eq!(ids, first_seen);
        assert_eq!(kb.len(), folded.len());
        for f in kb.iter() {
            let t = f.triple;
            let key = [t.s, t.p, t.o].map(|id| kb.resolve(id).expect("interned"));
            assert_eq!(f.confidence.to_bits(), folded[&key].to_bits(), "{key:?}");
            assert_eq!(f.source, src);
        }
    }

    #[test]
    fn factor_graph_method_runs_end_to_end() {
        let (corpus, out) = run(Method::FactorGraph);
        let gold_facts = gold::gold_fact_strings(&corpus.world);
        let m = evaluate_discovered(&out.accepted, &gold_facts, &out.seeds);
        assert!(m.precision > 0.4, "precision {}", m.precision);
    }

    #[test]
    fn accepted_facts_carry_temporal_spans_when_hinted() {
        let (_, out) = run(Method::Reasoning);
        let spanned = out.kb.iter().filter(|f| f.span.is_some()).count();
        assert!(spanned > 0, "some harvested facts should carry time spans");
    }

    // ---- incremental ------------------------------------------------

    /// Incremental mode end to end: bootstrap over a corpus prefix,
    /// stream the held-out documents as delta batches, and verify the
    /// segmented view grows without touching the base.
    #[test]
    fn incremental_batches_stack_deltas_on_the_bootstrap_base() {
        use kb_store::{KbRead, SegmentedSnapshot};
        use std::sync::Arc;

        let corpus = Corpus::generate(&CorpusConfig::tiny());
        let (boot, held_out) = corpus.bootstrap_split();
        // One harvest body: at the default method the bootstrap output
        // is `harvest`'s, byte for byte (statable only since same-seed
        // harvests are deterministic).
        let cfg = HarvestConfig { workers: 2, ..Default::default() };
        let (_, out) = IncrementalHarvester::bootstrap(&boot, &cfg).expect("bootstrap");
        let plain = harvest(&boot, &cfg).expect("harvest");
        assert_eq!(out.accepted, plain.accepted);
        assert_eq!(
            kb_store::ntriples::to_string(&out.kb),
            kb_store::ntriples::to_string(&plain.kb)
        );
        let cfg = HarvestConfig { method: Method::Statistical, workers: 2, ..Default::default() };
        let (inc, out) = IncrementalHarvester::bootstrap(&boot, &cfg).expect("bootstrap");
        let base = out.kb.snapshot().into_shared();
        let base_len = base.len();
        let mut view = SegmentedSnapshot::from_base(base);

        let held: Vec<&Doc> = held_out.iter().collect();
        let mut accepted = Vec::new();
        for chunk in held.chunks(2) {
            let outcome = inc.harvest_batch(&corpus.world, chunk, &view).expect("batch");
            assert!(outcome.occurrences > 0, "held-out articles must yield occurrences");
            assert!(outcome.quarantined.is_empty());
            accepted.push(outcome.accepted);
            view = view.with_delta(Arc::new(outcome.delta));
        }
        assert!(view.delta_count() >= 1);
        // The models taken from the harvest body accept what the models
        // the parent commit re-derived by a second collection and
        // training pass accepted (counts recorded there, same split).
        assert_eq!(accepted, [5, 6, 3, 3, 0, 0, 0, 0]);
        assert_eq!(view.len(), 157);
        assert!(
            view.len() > base_len,
            "deltas must add net-new facts: base {base_len}, view {}",
            view.len()
        );
        // The stack compacts back to a monolithic snapshot with the
        // same answers.
        let compacted = view.compact().unwrap();
        assert_eq!(compacted.len(), view.len());
    }

    /// Batch collection fans out over the workers; the delta a batch
    /// freezes must not show how many there were.
    #[test]
    fn a_large_batch_shards_and_freezes_the_same_delta_at_any_worker_count() {
        use kb_store::{Fact, FactKind, SegmentedSnapshot};
        use std::sync::Arc;

        let corpus = Corpus::generate(&CorpusConfig::standard(42));
        let (boot, held_out) = corpus.bootstrap_split();
        let batch: Vec<&Doc> = held_out.iter().collect();
        let freeze = |workers: usize| {
            let cfg = HarvestConfig { method: Method::Statistical, workers, ..Default::default() };
            let (inc, out) = IncrementalHarvester::bootstrap(&boot, &cfg).expect("bootstrap");
            let view = SegmentedSnapshot::from_base(out.kb.snapshot().into_shared());
            let outcome = inc.harvest_batch(&corpus.world, &batch, &view).expect("batch");
            assert!(outcome.accepted > 0);
            let entries: Vec<(Fact, FactKind)> =
                outcome.delta.entries_iter().map(|(f, k)| (f.clone(), k)).collect();
            let stacked = view.with_delta(Arc::new(outcome.delta));
            (entries, kb_store::ntriples::to_string(&stacked).expect("dump"))
        };
        let (entries_1, dump_1) = freeze(1);
        let (entries_4, dump_4) = freeze(4);
        assert_eq!(entries_1, entries_4);
        assert!(dump_1 == dump_4, "stacked views dump differently");
    }

    /// A batch honours `generalize` as the whole harvest does: the batch
    /// path used to run the exact model's extraction only. Scarce seeds,
    /// as in T3's ablation: at the default fraction every paraphrase is
    /// learned exactly and a skeleton has nothing left to match.
    #[test]
    fn a_batch_adds_generalized_matches_when_the_harvest_does() {
        use kb_store::SegmentedSnapshot;

        let corpus = Corpus::generate(&CorpusConfig::standard(42));
        let (boot, held_out) = corpus.bootstrap_split();
        let batch: Vec<&Doc> = held_out.iter().collect();
        let candidates = |generalize: bool| {
            let cfg = HarvestConfig {
                method: Method::Statistical,
                workers: 2,
                generalize,
                seed_fraction: 0.08,
                ..Default::default()
            };
            // The bootstrap output is `harvest`'s for the same inputs.
            let (inc, out) = IncrementalHarvester::bootstrap(&boot, &cfg).expect("bootstrap");
            let view = SegmentedSnapshot::from_base(out.kb.snapshot().into_shared());
            let outcome = inc.harvest_batch(&corpus.world, &batch, &view).expect("batch");
            (out.stats.candidates, outcome.candidates)
        };
        let (whole_exact, batch_exact) = candidates(false);
        let (whole_general, batch_general) = candidates(true);
        assert!(whole_general > whole_exact, "harvest: {whole_exact} → {whole_general}");
        assert!(batch_general > batch_exact, "batch: {batch_exact} → {batch_general}");
    }

    // ---- fan-out ----------------------------------------------------

    /// Covers code that did not exist at the parent (its four chunking
    /// bodies were only reachable through whole stages).
    #[test]
    fn fan_out_keeps_input_order_and_turns_a_worker_panic_into_an_error() {
        for (workers, n) in [1, 2, 3, 8].into_iter().flat_map(|w| [0, 1, 7].map(|n| (w, n))) {
            let items: Vec<usize> = (0..n).collect();
            let chunks = fan_out(&items, workers, "test", <[usize]>::to_vec).expect("no panic");
            assert!(chunks.len() <= workers, "workers={workers} n={n}");
            assert_eq!(chunks.concat(), items, "workers={workers} n={n}");
            let err = fan_out(&items, workers, "doomed", |chunk| {
                assert!(chunk.last().is_some_and(|&i| i + 1 < n), "boom in the last chunk");
            });
            assert!(
                matches!(&err, Err(PipelineError::WorkerPanic { stage: "doomed", detail })
                    if detail == "boom in the last chunk"),
                "workers={workers} n={n}: {err:?}"
            );
        }
    }

    // ---- resilience -------------------------------------------------

    #[test]
    fn corrupt_docs_are_quarantined_not_fatal() {
        let mut corpus = Corpus::generate(&CorpusConfig::tiny());
        // Dangle a mention past the end of the first article's text.
        let victim_id = corpus.articles[0].id;
        let len = corpus.articles[0].text.len();
        corpus.articles[0].mentions.push(Mention {
            start: len + 10,
            end: len + 20,
            entity: EntityId(0),
            surface: "ghost".into(),
        });
        let out = harvest(&corpus, &HarvestConfig::default()).expect("harvest survives poison");
        assert_eq!(out.stats.quarantined_count(), 1);
        let dead = &out.stats.quarantined[0];
        assert_eq!(dead.doc_id, victim_id);
        assert!(matches!(dead.reason, QuarantineReason::Defect(_)), "{:?}", dead.reason);
        assert_eq!(out.stats.docs, corpus.all_docs().len() - 1);
        assert!(!out.kb.is_empty());
    }

    #[test]
    fn extractor_panics_are_caught_retried_and_dead_lettered() {
        // Point one article's mentions at a phantom entity and disable
        // the validation bound, so the document reaches the extractor
        // and panics there — exercising the catch_unwind path. It is
        // extracted once: a second attempt would panic the same way.
        let mut corpus = Corpus::generate(&CorpusConfig::tiny());
        let poison_id = corpus.articles[0].id;
        // Alternate two phantom ids: the extractor skips same-entity
        // mention pairs, so a single shared phantom id would never be
        // resolved (and never panic). The ids stay below the disabled
        // validation bound so the document reaches the extractor.
        for (i, m) in corpus.articles[0].mentions.iter_mut().enumerate() {
            m.entity = EntityId(1_000_000 + (i as u32 % 2));
        }
        let docs = corpus.all_docs();
        let total = docs.len();
        let world = &corpus.world;
        let canonical_of = |id: kb_corpus::EntityId| world.entity(id).canonical.as_str();
        let outcome = collect_resilient(
            &docs,
            &canonical_of,
            &CollectConfig::default(),
            2,
            u32::MAX, // validation cannot see the phantom: panic path
        )
        .expect("resilient collection");
        assert_eq!(outcome.quarantined.len(), 1);
        let dead = &outcome.quarantined[0];
        assert_eq!(dead.doc_id, poison_id);
        assert!(matches!(dead.reason, QuarantineReason::Panic(_)), "{:?}", dead.reason);
        assert_eq!(outcome.survivors.len(), total - 1);
    }

    /// Reasoning refines the statistical method's answer: it keeps a
    /// subset of what the type scores alone accept, never adds to it.
    #[test]
    fn zero_budget_downgrades_reasoning_to_statistical() {
        let (_, statistical) = run(Method::Statistical);
        let (_, reasoning) = run(Method::Reasoning);
        assert_eq!(statistical.candidates.len(), reasoning.candidates.len());
        let kept: HashSet<_> = statistical.accepted.iter().map(CandidateFact::key).collect();
        assert!(!reasoning.accepted.is_empty());
        for c in &reasoning.accepted {
            assert!(kept.contains(&c.key()), "reasoning accepted {:?} on its own", c.key());
        }
    }

    /// A panic in our own code is a defect, not a reason to fall back to
    /// a cheaper method: the stage boundary reports it as a typed
    /// error. A gold fact naming an entity the world does not hold
    /// panics inside the harvest body.
    #[test]
    fn injected_refinement_panic_takes_the_ladder() {
        let mut corpus = Corpus::generate(&CorpusConfig::tiny());
        let mut broken = corpus.world.facts[0];
        broken.s = EntityId(u32::MAX);
        corpus.world.facts.push(broken);
        for method in [Method::Reasoning, Method::FactorGraph] {
            let err = harvest(&corpus, &HarvestConfig { method, ..Default::default() })
                .expect_err("a panicking stage is an error");
            assert!(
                matches!(&err, PipelineError::StagePanic { stage: "harvest", detail }
                    if detail.contains("out of bounds")),
                "{method:?}: {err:?}"
            );
        }
    }

    /// The two methods without a solver accept exactly the candidates
    /// at or above the threshold.
    #[test]
    fn statistical_and_patterns_only_never_downgrade() {
        for method in [Method::PatternsOnly, Method::Statistical] {
            let (_, out) = run(method);
            let cleared: Vec<_> = out
                .candidates
                .iter()
                .filter(|c| c.confidence >= HarvestConfig::default().min_confidence)
                .map(CandidateFact::key)
                .collect();
            let accepted: Vec<_> = out.accepted.iter().map(CandidateFact::key).collect();
            assert_eq!(accepted, cleared, "{method:?}");
        }
    }
}
