//! The NED system: candidate generation with anchor priors, plus the
//! three disambiguation strategies of experiment T5.

use std::collections::HashMap;

use kb_store::{KbRead, TermId};

use crate::coherence::CoherenceIndex;
use crate::context::ContextIndex;

/// Disambiguation strategy (ablation levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Most popular candidate per surface form (anchor prior, falling
    /// back to KB degree).
    Prior,
    /// Prior + context similarity.
    Context,
    /// Prior + context + joint coherence (greedy iterative).
    Coherence,
}

/// Scoring weights.
#[derive(Debug, Clone, Copy)]
pub struct NedWeights {
    /// Weight of the normalized prior.
    pub prior: f64,
    /// Weight of context cosine similarity.
    pub context: f64,
    /// Weight of mean pairwise coherence.
    pub coherence: f64,
    /// Context window (tokens either side of the mention).
    pub window: usize,
    /// Maximum candidates considered per mention.
    pub max_candidates: usize,
    /// Iterations of greedy joint refinement.
    pub iterations: usize,
    /// NIL threshold: a mention whose best combined score falls below
    /// this maps to `None` ("the entity is not in the KB"). 0 disables
    /// NIL detection (every candidate list yields its argmax).
    pub nil_threshold: f64,
}

impl Default for NedWeights {
    fn default() -> Self {
        Self {
            prior: 0.3,
            context: 0.4,
            coherence: 0.6,
            window: 20,
            max_candidates: 16,
            iterations: 3,
            nil_threshold: 0.0,
        }
    }
}

/// The NED engine. Build with [`Ned::new`], feed anchor statistics with
/// [`Ned::add_anchor`], then [`Ned::finalize`] before disambiguating.
///
/// Generic over the KB view: works against the live
/// [`KbBuilder`](kb_store::KbBuilder) or a frozen snapshot — anything
/// implementing [`KbRead`].
pub struct Ned<'kb, K: ?Sized> {
    kb: &'kb K,
    /// (lowercased surface, entity) → anchor count.
    anchor_counts: HashMap<(String, TermId), usize>,
    /// lowercased surface → total anchor count.
    surface_totals: HashMap<String, usize>,
    context: Option<ContextIndex>,
    coherence: Option<CoherenceIndex>,
    /// Weights used by scoring.
    pub weights: NedWeights,
}

impl<'kb, K: KbRead + ?Sized> Ned<'kb, K> {
    /// Creates an engine over a KB view (call
    /// [`finalize`](Self::finalize) before use).
    pub fn new(kb: &'kb K) -> Self {
        Self {
            kb,
            anchor_counts: HashMap::new(),
            surface_totals: HashMap::new(),
            context: None,
            coherence: None,
            weights: NedWeights::default(),
        }
    }

    /// Records one anchor-text observation: `surface` was used to refer
    /// to `entity`. These counts become the popularity prior.
    pub fn add_anchor(&mut self, surface: &str, entity: TermId) {
        let key = surface.to_lowercase();
        *self.anchor_counts.entry((key.clone(), entity)).or_insert(0) += 1;
        *self.surface_totals.entry(key).or_insert(0) += 1;
    }

    /// Builds the context and coherence indexes over every entity that
    /// has a label or anchor.
    pub fn finalize(&mut self) {
        let mut entities: Vec<TermId> = self
            .kb
            .labels()
            .iter()
            .map(|(t, _, _)| t)
            .chain(self.anchor_counts.keys().map(|&(_, e)| e))
            .collect();
        entities.sort_unstable();
        entities.dedup();
        self.context = Some(ContextIndex::build(self.kb, entities.iter().copied()));
        self.coherence = Some(CoherenceIndex::build(self.kb, entities));
    }

    /// Candidate entities for a surface form with normalized priors,
    /// sorted by descending prior. Combines anchor statistics with the
    /// KB label store; entities never anchored get a degree-based prior.
    pub fn candidates(&self, surface: &str) -> Vec<(TermId, f64)> {
        let key = surface.to_lowercase();
        let mut cands: Vec<TermId> = self.kb.labels().candidate_entities(surface);
        // Anchored entities not in the label store still qualify.
        for (s, e) in self.anchor_counts.keys() {
            if *s == key && !cands.contains(e) {
                cands.push(*e);
            }
        }
        if cands.is_empty() {
            return vec![];
        }
        let total = self.surface_totals.get(&key).copied().unwrap_or(0);
        let mut scored: Vec<(TermId, f64)> = cands
            .into_iter()
            .map(|e| {
                let anchors = self.anchor_counts.get(&(key.clone(), e)).copied().unwrap_or(0);
                let prior = if total > 0 { anchors as f64 / total as f64 } else { 0.0 };
                // Degree smoothing keeps unanchored entities viable.
                let degree_prior = (self.kb.degree(e) as f64 + 1.0).ln();
                (e, prior + 0.01 * degree_prior)
            })
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then_with(|| a.0.cmp(&b.0))
        });
        scored.truncate(self.weights.max_candidates);
        // Normalize.
        let sum: f64 = scored.iter().map(|(_, p)| p).sum();
        if sum > 0.0 {
            for (_, p) in &mut scored {
                *p /= sum;
            }
        }
        scored
    }

    /// Disambiguates the given mention spans in `text`. Returns one
    /// `Option<TermId>` per mention (None when no candidates exist).
    pub fn disambiguate(
        &self,
        text: &str,
        mentions: &[(usize, usize)],
        strategy: Strategy,
    ) -> Vec<Option<TermId>> {
        let ctx_index = self.context.as_ref().expect("call finalize() first");
        let coh_index = self.coherence.as_ref().expect("call finalize() first");
        // Per-mention candidate lists with local scores.
        let mut local: Vec<Vec<(TermId, f64)>> = Vec::with_capacity(mentions.len());
        for &(start, end) in mentions {
            let surface = &text[start..end];
            let cands = self.candidates(surface);
            let scored = match strategy {
                Strategy::Prior => {
                    cands.into_iter().map(|(e, p)| (e, self.weights.prior * p)).collect()
                }
                Strategy::Context | Strategy::Coherence => {
                    let ctx = ctx_index.context_vector(text, start, end, self.weights.window);
                    cands
                        .into_iter()
                        .map(|(e, p)| {
                            let sim = ctx_index.similarity(&ctx, e);
                            (e, self.weights.prior * p + self.weights.context * sim)
                        })
                        .collect()
                }
            };
            local.push(scored);
        }
        // Initial assignment: local argmax, NIL when below threshold.
        let mut assignment: Vec<Option<TermId>> = local
            .iter()
            .map(|c| {
                best_of(c).filter(|&(_, score)| score >= self.weights.nil_threshold).map(|(e, _)| e)
            })
            .collect();
        if strategy != Strategy::Coherence || mentions.len() < 2 {
            return assignment;
        }
        // Greedy joint refinement: re-pick each mention's entity to
        // maximize local score + coherence with the other assignments.
        for _ in 0..self.weights.iterations {
            let mut changed = false;
            for i in 0..local.len() {
                let others: Vec<TermId> = assignment
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .filter_map(|(_, a)| *a)
                    .collect();
                let best = local[i]
                    .iter()
                    .map(|&(e, s)| {
                        let coh = if others.is_empty() {
                            0.0
                        } else {
                            others.iter().map(|&o| coh_index.relatedness(e, o)).sum::<f64>()
                                / others.len() as f64
                        };
                        (e, s + self.weights.coherence * coh)
                    })
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                let new =
                    best.filter(|&(_, score)| score >= self.weights.nil_threshold).map(|(e, _)| e);
                if new != assignment[i] {
                    assignment[i] = new;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        assignment
    }

    /// Ambiguity of a surface form (candidate count).
    pub fn ambiguity(&self, surface: &str) -> usize {
        self.candidates(surface).len()
    }
}

fn best_of(cands: &[(TermId, f64)]) -> Option<(TermId, f64)> {
    cands.iter().copied().max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbBuilder;

    /// KB with two people named "Varen": Alan (tied to AcmeCo, Lundholm)
    /// and Bea (tied to ZetaCo, Torberg).
    fn setup() -> (KbBuilder, TermId, TermId) {
        let mut kb = KbBuilder::new();
        let alan = kb.intern("Alan_Varen");
        let bea = kb.intern("Bea_Varen");
        let acme = kb.intern("AcmeCo");
        let zeta = kb.intern("ZetaCo");
        let lund = kb.intern("Lundholm");
        let tor = kb.intern("Torberg");
        let works = kb.intern("worksAt");
        let born = kb.intern("bornIn");
        kb.add_triple(alan, works, acme);
        kb.add_triple(alan, born, lund);
        kb.add_triple(bea, works, zeta);
        kb.add_triple(bea, born, tor);
        let en = kb.labels.lang("en");
        kb.labels.add(alan, en, "Varen");
        kb.labels.add(alan, en, "Alan Varen");
        kb.labels.add(bea, en, "Varen");
        kb.labels.add(bea, en, "Bea Varen");
        kb.labels.add(acme, en, "AcmeCo");
        kb.labels.add(lund, en, "Lundholm");
        (kb, alan, bea)
    }

    #[test]
    fn prior_follows_anchor_counts() {
        let (kb, alan, bea) = setup();
        let mut ned = Ned::new(&kb);
        ned.add_anchor("Varen", alan);
        ned.add_anchor("Varen", alan);
        ned.add_anchor("Varen", bea);
        ned.finalize();
        let cands = ned.candidates("Varen");
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].0, alan, "Alan has 2/3 of anchors");
        assert!(cands[0].1 > cands[1].1);
        let text = "Varen gave a speech.";
        let out = ned.disambiguate(text, &[(0, 5)], Strategy::Prior);
        assert_eq!(out[0], Some(alan));
    }

    #[test]
    fn context_overrides_prior_when_evidence_is_strong() {
        let (kb, alan, bea) = setup();
        let mut ned = Ned::new(&kb);
        // Prior favors Bea...
        ned.add_anchor("Varen", bea);
        ned.add_anchor("Varen", bea);
        ned.add_anchor("Varen", alan);
        ned.finalize();
        // ...but the context screams Alan (AcmeCo, Lundholm).
        let text = "Varen works at AcmeCo in Lundholm.";
        let prior_out = ned.disambiguate(text, &[(0, 5)], Strategy::Prior);
        let ctx_out = ned.disambiguate(text, &[(0, 5)], Strategy::Context);
        assert_eq!(prior_out[0], Some(bea));
        assert_eq!(ctx_out[0], Some(alan));
    }

    #[test]
    fn coherence_uses_co_occurring_mentions() {
        let (kb, alan, bea) = setup();
        let mut ned = Ned::new(&kb);
        ned.add_anchor("Varen", bea); // prior favors Bea
        ned.add_anchor("Varen", bea);
        ned.add_anchor("Varen", alan);
        ned.add_anchor("AcmeCo", kb.term("AcmeCo").unwrap());
        ned.add_anchor("Lundholm", kb.term("Lundholm").unwrap());
        ned.finalize();
        // Mention text gives no useful context words, but the other
        // mentions (AcmeCo, Lundholm) cohere with Alan.
        let text = "Varen, AcmeCo, Lundholm.";
        let mentions = [(0usize, 5usize), (7, 13), (15, 23)];
        let coh_out = ned.disambiguate(text, &mentions, Strategy::Coherence);
        assert_eq!(coh_out[0], Some(alan));
    }

    #[test]
    fn unknown_surfaces_yield_none() {
        let (kb, _, _) = setup();
        let mut ned = Ned::new(&kb);
        ned.finalize();
        let out = ned.disambiguate("Zorblax spoke.", &[(0, 7)], Strategy::Prior);
        assert_eq!(out[0], None);
    }

    #[test]
    fn ambiguity_counts_candidates() {
        let (kb, _, _) = setup();
        let mut ned = Ned::new(&kb);
        ned.finalize();
        assert_eq!(ned.ambiguity("Varen"), 2);
        assert_eq!(ned.ambiguity("Alan Varen"), 1);
        assert_eq!(ned.ambiguity("Nobody"), 0);
    }

    #[test]
    fn nil_threshold_rejects_weak_matches() {
        let (kb, alan, _) = setup();
        let mut ned = Ned::new(&kb);
        ned.add_anchor("Varen", alan);
        ned.finalize();
        // With NIL detection off, even a context-free mention resolves.
        let text = "Varen.";
        let resolved = ned.disambiguate(text, &[(0, 5)], Strategy::Context);
        assert!(resolved[0].is_some());
        // A harsh threshold turns low-evidence mentions into NIL...
        ned.weights.nil_threshold = 0.9;
        let nil = ned.disambiguate(text, &[(0, 5)], Strategy::Context);
        assert_eq!(nil[0], None);
        // ...while strong contextual matches still resolve.
        ned.weights.nil_threshold = 0.2;
        let strong = "Varen works at AcmeCo in Lundholm.";
        let ok = ned.disambiguate(strong, &[(0, 5)], Strategy::Context);
        assert_eq!(ok[0], Some(alan));
    }

    #[test]
    fn nil_threshold_applies_to_coherence_too() {
        let (kb, alan, _) = setup();
        let mut ned = Ned::new(&kb);
        ned.add_anchor("Varen", alan);
        ned.weights.nil_threshold = 10.0; // impossible bar
        ned.finalize();
        let out = ned.disambiguate(
            "Varen, AcmeCo, Lundholm.",
            &[(0, 5), (7, 13), (15, 23)],
            Strategy::Coherence,
        );
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn max_candidates_truncates() {
        let mut kb = KbBuilder::new();
        let en = kb.labels.lang("en");
        for i in 0..30 {
            let t = kb.intern(&format!("Smith_{i}"));
            kb.labels.add(t, en, "Smith");
        }
        let mut ned = Ned::new(&kb);
        ned.weights.max_candidates = 5;
        ned.finalize();
        assert_eq!(ned.candidates("Smith").len(), 5);
    }
}
