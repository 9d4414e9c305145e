//! The end-to-end harvesting pipeline: documents in, populated
//! knowledge base out — with document-parallel occurrence collection
//! (the "scalable distributed algorithms" of the tutorial, realized as
//! scoped threads over contiguous document chunks) and a resilience
//! layer that keeps the harvest alive on poisoned input.
//!
//! One fan-out, one body: every parallel stage (resilient collection,
//! [`analyze_parallel`], the sharded KB load) goes through the private
//! `fan_out`, which is the only place that chunks, spawns and joins, so
//! output never depends on the worker count. [`harvest`] and
//! [`IncrementalHarvester::bootstrap`] run the same body once —
//! `bootstrap` merely keeps the pattern model and type index that body
//! learned — and [`IncrementalHarvester::harvest_batch`] reuses its
//! collection, refinement and load stages with those frozen models.
//!
//! Failure model (see DESIGN.md, "Failure model"):
//!
//! * **Quarantine** — per-document work runs behind integrity
//!   validation plus `catch_unwind`; a poison document lands in the
//!   dead-letter queue ([`PipelineStats::quarantined`]) instead of
//!   killing the run.
//! * **Degradation** — the refinement stage falls back from
//!   [`Method::Reasoning`] / [`Method::FactorGraph`] to
//!   [`Method::Statistical`] when it panics or blows its budget, and
//!   records the [`Downgrade`].
//! * **No panics across the API** — [`harvest`] returns
//!   `Result<_, PipelineError>`; worker joins and stage bodies are
//!   shielded.

use std::collections::HashSet;
use std::time::Instant;

use kb_corpus::{gold, Corpus, Doc};
use kb_store::{Fact, KbBuilder, KbShard, SourceId, TimeSpan, Triple};

use crate::factorgraph::{self, GibbsConfig};
use crate::facts::distant::{self, FactKey, TrainConfig};
use crate::facts::extract::{self, CandidateFact, ExtractConfig};
use crate::facts::patterns::{self, CollectConfig, PatternOccurrence};
use crate::facts::scoring::{self, ScoreConfig, TypeIndex};
use crate::reasoning::{self, SolverConfig};
use crate::resilience::{
    catch_panic, panic_payload_to_string, BudgetGuard, Downgrade, DowngradeReason, PipelineError,
    QuarantineReason, Quarantined, ResilienceConfig,
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
    /// Retry, quarantine and degradation knobs.
    pub resilience: ResilienceConfig,
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
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Wall-clock timings and counters per stage, plus the run's resilience
/// ledger (dead letters, retries, downgrades).
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
    /// Extra per-document extraction attempts spent on retries.
    pub retries: usize,
    /// Degradation-ladder rungs taken during refinement.
    pub downgrades: Vec<Downgrade>,
}

impl PipelineStats {
    /// Whether any stage was downgraded during the run.
    pub fn downgraded(&self) -> bool {
        !self.downgrades.is_empty()
    }

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
/// plus the dead-letter queue and retry ledger.
#[derive(Debug, Default)]
pub struct CollectOutcome {
    /// Occurrences from surviving documents, in serial doc order.
    pub occurrences: Vec<PatternOccurrence>,
    /// Indices (into the input slice) of documents that survived.
    pub survivors: Vec<usize>,
    /// Quarantined documents, in serial doc order.
    pub quarantined: Vec<Quarantined>,
    /// Extra extraction attempts spent on retries.
    pub retries: usize,
}

/// Fault-tolerant occurrence collection: each document is validated
/// (mention spans in bounds, on char boundaries, entity ids below
/// `entity_bound`) and then extracted behind `catch_unwind` with the
/// configured retry policy. A document that fails validation or keeps
/// panicking is quarantined; the rest of the harvest proceeds without
/// it. Output order is deterministic and independent of `workers`.
pub(crate) fn collect_resilient<'a>(
    docs: &[&Doc],
    canonical_of: &(impl Fn(kb_corpus::EntityId) -> &'a str + Sync),
    cfg: &CollectConfig,
    workers: usize,
    res: &ResilienceConfig,
    entity_bound: u32,
) -> Result<CollectOutcome, PipelineError> {
    let per_doc = fan_out(docs, workers, "collect-resilient", |chunk| {
        chunk
            .iter()
            .map(|doc| -> (Result<Vec<PatternOccurrence>, QuarantineReason>, u32) {
                if let Some(defect) = doc.integrity_error(entity_bound) {
                    // Validation failures are permanent properties of the
                    // input; retrying cannot fix them.
                    return (Err(QuarantineReason::Defect(defect.to_string())), 1);
                }
                let outcome = res
                    .retry
                    .run(|_| catch_panic(|| patterns::collect_occurrences(doc, canonical_of, cfg)));
                (outcome.result.map_err(QuarantineReason::Panic), outcome.attempts)
            })
            .collect::<Vec<_>>()
    })?;
    let mut out = CollectOutcome::default();
    for (i, (survived, attempts)) in per_doc.into_iter().flatten().enumerate() {
        out.retries += attempts.saturating_sub(1) as usize;
        match survived {
            Ok(occs) => {
                out.survivors.push(i);
                out.occurrences.extend(occs);
            }
            Err(reason) => out.quarantined.push(Quarantined {
                doc_id: docs[i].id,
                title: docs[i].title.clone(),
                reason,
                attempts,
            }),
        }
    }
    Ok(out)
}

/// Indices of candidates clearing the acceptance threshold.
fn threshold_filter(candidates: &[CandidateFact], min_confidence: f64) -> Vec<usize> {
    (0..candidates.len()).filter(|&i| candidates[i].confidence >= min_confidence).collect()
}

/// The refinement stage with its graceful-degradation ladder.
///
/// [`Method::Reasoning`] and [`Method::FactorGraph`] run behind a panic
/// shield and a wall-clock budget; if either trips, the stage falls
/// back to the already-computed [`Method::Statistical`] scores and
/// records the [`Downgrade`]. The budget check is cooperative (the
/// result of an over-budget solve is discarded, not preempted), so a
/// budget of `0` forces the ladder deterministically.
fn refine_candidates(
    candidates: &mut [CandidateFact],
    types: &TypeIndex,
    cfg: &HarvestConfig,
) -> (Vec<usize>, Vec<Downgrade>) {
    enum Refined {
        Accepted(Vec<usize>),
        Marginals(Vec<f64>),
    }
    let method = cfg.method;
    match method {
        Method::PatternsOnly => (threshold_filter(candidates, cfg.min_confidence), Vec::new()),
        Method::Statistical => {
            scoring::apply_type_scoring(candidates, types, &ScoreConfig::default());
            (threshold_filter(candidates, cfg.min_confidence), Vec::new())
        }
        Method::Reasoning | Method::FactorGraph => {
            scoring::apply_type_scoring(candidates, types, &ScoreConfig::default());
            let budget = cfg.resilience.refine_budget_secs;
            let attempt = if budget <= 0.0 {
                Err(DowngradeReason::BudgetExceeded { budget_secs: budget, elapsed_secs: 0.0 })
            } else {
                let guard = BudgetGuard::start(budget);
                let shielded = catch_panic(|| {
                    if cfg.resilience.inject_refine_panic {
                        panic!("injected refinement fault (chaos hook)");
                    }
                    match method {
                        Method::Reasoning => {
                            let outcome = reasoning::reason_candidates(
                                candidates,
                                types,
                                &SolverConfig::default(),
                            );
                            Refined::Accepted(
                                outcome
                                    .accepted
                                    .into_iter()
                                    .filter(|&i| candidates[i].confidence >= cfg.min_confidence)
                                    .collect(),
                            )
                        }
                        Method::FactorGraph => Refined::Marginals(factorgraph::infer_candidates(
                            candidates,
                            types,
                            &GibbsConfig::default(),
                        )),
                        _ => unreachable!("outer match restricts the method"),
                    }
                });
                match shielded {
                    Ok(refined) if !guard.exceeded() => Ok(refined),
                    Ok(_) => Err(DowngradeReason::BudgetExceeded {
                        budget_secs: budget,
                        elapsed_secs: guard.elapsed_secs(),
                    }),
                    Err(payload) => Err(DowngradeReason::Panicked(payload)),
                }
            };
            match attempt {
                Ok(Refined::Accepted(accepted)) => (accepted, Vec::new()),
                Ok(Refined::Marginals(marginals)) => {
                    for (c, &m) in candidates.iter_mut().zip(&marginals) {
                        c.confidence = m;
                    }
                    (threshold_filter(candidates, cfg.min_confidence), Vec::new())
                }
                Err(reason) => {
                    let downgrade = Downgrade {
                        stage: "refinement",
                        from: method,
                        to: Method::Statistical,
                        reason,
                    };
                    (threshold_filter(candidates, cfg.min_confidence), vec![downgrade])
                }
            }
        }
    }
}

/// Below this many accepted facts per worker, sharded ingest costs more
/// in thread setup than it saves; the loader stays serial.
const MIN_FACTS_PER_SHARD: usize = 64;

/// Loads accepted candidates into the KB. With several workers and
/// enough facts, each worker builds a private [`KbShard`] (local
/// dictionary, no contention on the global store) and the shards merge
/// at a barrier in chunk order. The merge is bit-identical to a serial
/// ingest — same dictionary ids, same noisy-or confidence combination —
/// because each shard interns subject, relation, object in candidate
/// order and [`KbBuilder::merge_shards`] replays shards in order.
fn ingest_accepted(
    kb: &mut KbBuilder,
    accepted: &[CandidateFact],
    src: SourceId,
    workers: usize,
) -> Result<(), PipelineError> {
    if workers <= 1 || accepted.len() < 2 * MIN_FACTS_PER_SHARD {
        for c in accepted {
            let triple =
                Triple::new(kb.intern(&c.subject), kb.intern(&c.relation), kb.intern(&c.object));
            let span: Option<TimeSpan> = temporal::infer_span(&c.hints);
            kb.add_fact(Fact { triple, confidence: c.confidence.min(1.0), source: src, span });
        }
        return Ok(());
    }
    let shards = fan_out(accepted, workers, "kb-load", |chunk| {
        let mut shard = KbShard::new();
        for c in chunk {
            let span: Option<TimeSpan> = temporal::infer_span(&c.hints);
            shard.add(&c.subject, &c.relation, &c.object, c.confidence.min(1.0), src, span);
        }
        shard
    })?;
    kb.merge_shards(shards);
    Ok(())
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
    let collected = collect_resilient(
        &all_docs,
        &canonical_of,
        &cfg.collect,
        cfg.workers,
        &cfg.resilience,
        entity_bound,
    )?;
    collect_span.stop();
    let collect_secs = t0.elapsed().as_secs_f64();
    let CollectOutcome { occurrences, survivors, quarantined, retries } = collected;
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

        // ---- Phase 4: refinement (with degradation ladder) ----------
        let refine_span = obs.span("harvest.phase.refine_us");
        let (accepted_idx, downgrades) = refine_candidates(&mut candidates, &types, cfg);
        let accepted: Vec<CandidateFact> =
            accepted_idx.iter().map(|&i| candidates[i].clone()).collect();
        refine_span.stop();
        let infer_secs = t1.elapsed().as_secs_f64();

        // ---- Phase 5: load KB (sharded ingest + merge barrier) ------
        let load_span = obs.span("harvest.phase.load_us");
        let mut kb = KbBuilder::new();
        let src = kb.register_source("harvest");
        induce::load_into_kb(&mut kb, &instances, &subclass_edges, "taxonomy")?;
        ingest_accepted(&mut kb, &accepted, src, cfg.workers)?;
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
            retries,
            downgrades,
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

/// Publishes one harvest run's volume and resilience ledger as
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
    obs.counter("harvest.resilience.retries").add(stats.retries as u64);
    obs.counter("harvest.resilience.downgrades").add(stats.downgrades.len() as u64);
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
/// resilient collection → extraction → refinement → (sharded, when the
/// batch is large enough) load into a throwaway [`KbBuilder`] that
/// freezes as a delta against the currently-served view. Batches use
/// the statistical refinement rung (not the global reasoner, whose
/// consistency constraints need the whole fact set) so per-batch
/// install cost stays proportional to the batch, not the base — the
/// periodic compaction or full rebuild restores the stronger
/// refinement.
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
            &self.cfg.resilience,
            world.entities.len() as u32,
        )?;
        catch_panic(|| -> Result<BatchOutcome, PipelineError> {
            let mut candidates = extract_all(&collected.occurrences, &self.model, &self.cfg);
            let (accepted_idx, _) = refine_candidates(&mut candidates, &self.types, &self.cfg);
            let accepted: Vec<CandidateFact> =
                accepted_idx.iter().map(|&i| candidates[i].clone()).collect();

            let mut b = KbBuilder::new();
            let src = b.register_source("harvest");
            ingest_accepted(&mut b, &accepted, src, self.cfg.workers)?;
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
    use crate::resilience::RetryPolicy;
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
        assert!(!out.stats.downgraded());
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
        // The sharded KB load must be bit-identical to the serial one:
        // same dictionary ids, same facts, same confidences.
        assert_eq!(
            kb_store::ntriples::to_string(&out1.kb),
            kb_store::ntriples::to_string(&out4.kb),
        );
    }

    #[test]
    fn sharded_ingest_matches_serial_for_large_candidate_sets() {
        // Enough synthetic candidates to force the parallel shard path
        // (>= 2 * MIN_FACTS_PER_SHARD), with duplicate keys so the
        // noisy-or merge order matters.
        let candidates: Vec<CandidateFact> = (0..(4 * MIN_FACTS_PER_SHARD))
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
        let build = |workers: usize| {
            let mut kb = KbBuilder::new();
            let src = kb.register_source("harvest");
            ingest_accepted(&mut kb, &candidates, src, workers).expect("ingest");
            kb
        };
        let serial = build(1);
        for workers in [2, 3, 4, 7] {
            let sharded = build(workers);
            assert_eq!(serial.len(), sharded.len(), "workers={workers}");
            assert_eq!(
                kb_store::ntriples::to_string(&serial),
                kb_store::ntriples::to_string(&sharded),
                "workers={workers}",
            );
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
        let compacted = view.compact();
        assert_eq!(compacted.len(), view.len());
    }

    /// Covers what the parent could not reach: `harvest_batch` loaded
    /// its delta in a serial loop of its own, so a batch never sharded.
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
            assert!(outcome.accepted >= 2 * MIN_FACTS_PER_SHARD, "{} accepted", outcome.accepted);
            let entries: Vec<(Fact, FactKind)> =
                outcome.delta.entries_iter().map(|(f, k)| (f.clone(), k)).collect();
            let stacked = view.with_delta(Arc::new(outcome.delta));
            (entries, kb_store::ntriples::to_string(&stacked).expect("dump"))
        };
        let (serial_entries, serial_dump) = freeze(1);
        let (sharded_entries, sharded_dump) = freeze(4);
        assert_eq!(serial_entries, sharded_entries);
        assert!(serial_dump == sharded_dump, "stacked views dump differently");
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
        // and panics there — exercising the catch_unwind + retry path.
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
        let res = ResilienceConfig { retry: RetryPolicy::immediate(3), ..Default::default() };
        let world = &corpus.world;
        let canonical_of = |id: kb_corpus::EntityId| world.entity(id).canonical.as_str();
        let outcome = collect_resilient(
            &docs,
            &canonical_of,
            &CollectConfig::default(),
            2,
            &res,
            u32::MAX, // validation cannot see the phantom: panic path
        )
        .expect("resilient collection");
        assert_eq!(outcome.quarantined.len(), 1);
        let dead = &outcome.quarantined[0];
        assert_eq!(dead.doc_id, poison_id);
        assert!(matches!(dead.reason, QuarantineReason::Panic(_)), "{:?}", dead.reason);
        assert_eq!(dead.attempts, 3, "panic should be retried to exhaustion");
        assert_eq!(outcome.retries, 2);
        assert_eq!(outcome.survivors.len(), total - 1);
    }

    #[test]
    fn zero_budget_downgrades_reasoning_to_statistical() {
        let corpus = Corpus::generate(&CorpusConfig::tiny());
        let statistical =
            harvest(&corpus, &HarvestConfig { method: Method::Statistical, ..Default::default() })
                .expect("statistical harvest");
        let mut cfg = HarvestConfig { method: Method::Reasoning, ..Default::default() };
        cfg.resilience.refine_budget_secs = 0.0;
        let degraded = harvest(&corpus, &cfg).expect("degraded harvest");
        assert!(degraded.stats.downgraded());
        let d = &degraded.stats.downgrades[0];
        assert_eq!(d.from, Method::Reasoning);
        assert_eq!(d.to, Method::Statistical);
        assert!(matches!(d.reason, DowngradeReason::BudgetExceeded { .. }));
        // Degraded output is exactly the statistical output.
        let a: Vec<_> = degraded.accepted.iter().map(CandidateFact::key).collect();
        let b: Vec<_> = statistical.accepted.iter().map(CandidateFact::key).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn injected_refinement_panic_takes_the_ladder() {
        let corpus = Corpus::generate(&CorpusConfig::tiny());
        for method in [Method::Reasoning, Method::FactorGraph] {
            let mut cfg = HarvestConfig { method, ..Default::default() };
            cfg.resilience.inject_refine_panic = true;
            let out = harvest(&corpus, &cfg).expect("harvest survives refinement panic");
            assert!(out.stats.downgraded(), "{method:?} should downgrade");
            let d = &out.stats.downgrades[0];
            assert_eq!(d.from, method);
            assert_eq!(d.to, Method::Statistical);
            assert!(matches!(d.reason, DowngradeReason::Panicked(_)), "{:?}", d.reason);
            assert!(!out.accepted.is_empty(), "degraded run still produces facts");
        }
    }

    #[test]
    fn statistical_and_patterns_only_never_downgrade() {
        for method in [Method::PatternsOnly, Method::Statistical] {
            let corpus = Corpus::generate(&CorpusConfig::tiny());
            let mut cfg = HarvestConfig { method, ..Default::default() };
            cfg.resilience.refine_budget_secs = 0.0;
            let out = harvest(&corpus, &cfg).expect("harvest");
            assert!(!out.stats.downgraded(), "{method:?} has no ladder to take");
        }
    }
}
