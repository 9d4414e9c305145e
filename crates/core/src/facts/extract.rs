//! Candidate-fact extraction: applying the learned pattern model to all
//! occurrences and aggregating evidence per candidate.

use std::collections::{HashMap, HashSet};

use super::distant::{FactKey, PatternModel};
use super::patterns::{PatternOccurrence, TimeHint};

/// A candidate fact with aggregated evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateFact {
    /// Canonical subject.
    pub subject: String,
    /// Relation name.
    pub relation: String,
    /// Canonical object.
    pub object: String,
    /// Noisy-or combination of the supporting patterns' precisions.
    pub confidence: f64,
    /// Number of supporting occurrences.
    pub support: usize,
    /// Distinct supporting documents.
    pub docs: usize,
    /// Distinct supporting patterns.
    pub patterns: usize,
    /// Temporal hints gathered from supporting sentences.
    pub hints: Vec<TimeHint>,
}

impl CandidateFact {
    /// The `(s, r, o)` string key of this candidate.
    pub fn key(&self) -> FactKey {
        (self.subject.clone(), self.relation.clone(), self.object.clone())
    }
}

/// Extraction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ExtractConfig {
    /// Patterns with per-relation precision below this never fire.
    pub min_pattern_precision: f64,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        Self { min_pattern_precision: 0.15 }
    }
}

/// Applies the model to all occurrences, producing aggregated candidate
/// facts sorted by descending confidence.
pub(crate) fn extract_candidates(
    occurrences: &[PatternOccurrence],
    model: &PatternModel,
    cfg: &ExtractConfig,
) -> Vec<CandidateFact> {
    struct Agg {
        miss_prob: f64,
        support: usize,
        docs: HashSet<u32>,
        patterns: HashSet<String>,
        hints: Vec<TimeHint>,
    }
    let mut by_key: HashMap<FactKey, Agg> = HashMap::new();
    for occ in occurrences {
        for (reversed, (s, o)) in
            [(false, (&occ.first, &occ.second)), (true, (&occ.second, &occ.first))]
        {
            let Some(stats) = model.predictions(&occ.pattern, reversed) else { continue };
            for (rel, &(precision, _)) in &stats.relations {
                if precision < cfg.min_pattern_precision {
                    continue;
                }
                let key = (s.clone(), rel.clone(), o.clone());
                let agg = by_key.entry(key).or_insert_with(|| Agg {
                    miss_prob: 1.0,
                    support: 0,
                    docs: HashSet::new(),
                    patterns: HashSet::new(),
                    hints: Vec::new(),
                });
                agg.miss_prob *= 1.0 - precision;
                agg.support += 1;
                agg.docs.insert(occ.doc_id);
                agg.patterns.insert(occ.pattern.infix.clone());
                if let Some(h) = occ.hint {
                    agg.hints.push(h);
                }
            }
        }
    }
    let mut out: Vec<CandidateFact> = by_key
        .into_iter()
        .map(|((subject, relation, object), agg)| CandidateFact {
            subject,
            relation,
            object,
            confidence: 1.0 - agg.miss_prob,
            support: agg.support,
            docs: agg.docs.len(),
            patterns: agg.patterns.len(),
            hints: agg.hints,
        })
        .collect();
    out.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.key().cmp(&b.key()))
    });
    out
}

/// Thresholds candidates into a predicted fact set for evaluation.
pub fn predicted_set(candidates: &[CandidateFact], min_confidence: f64) -> HashSet<FactKey> {
    candidates.iter().filter(|c| c.confidence >= min_confidence).map(CandidateFact::key).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::distant::{train, TrainConfig};
    use crate::facts::patterns::PatternKey;

    fn occ(first: &str, infix: &str, second: &str, doc: u32) -> PatternOccurrence {
        PatternOccurrence {
            doc_id: doc,
            first: first.into(),
            second: second.into(),
            pattern: PatternKey { infix: infix.into(), reversed: false },
            hint: None,
        }
    }

    fn trained_model() -> PatternModel {
        let occs = vec![
            occ("A", "was born in", "X", 0),
            occ("B", "was born in", "Y", 0),
            occ("C", "was born in", "Z", 0),
        ];
        let seeds = [
            ("A".to_string(), "bornIn".to_string(), "X".to_string()),
            ("B".to_string(), "bornIn".to_string(), "Y".to_string()),
            ("C".to_string(), "bornIn".to_string(), "Z".to_string()),
        ]
        .into_iter()
        .collect();
        train(&occs, &seeds, &TrainConfig::default())
    }

    #[test]
    fn extraction_generalizes_to_new_pairs() {
        let model = trained_model();
        let new_occs = vec![occ("D", "was born in", "W", 5)];
        let cands = extract_candidates(&new_occs, &model, &ExtractConfig::default());
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].subject, "D");
        assert_eq!(cands[0].relation, "bornIn");
        assert_eq!(cands[0].object, "W");
        assert!(cands[0].confidence > 0.5);
    }

    #[test]
    fn repeated_evidence_raises_confidence() {
        let model = trained_model();
        let once = extract_candidates(
            &[occ("D", "was born in", "W", 1)],
            &model,
            &ExtractConfig::default(),
        );
        let thrice = extract_candidates(
            &[
                occ("D", "was born in", "W", 1),
                occ("D", "was born in", "W", 2),
                occ("D", "was born in", "W", 3),
            ],
            &model,
            &ExtractConfig::default(),
        );
        assert!(thrice[0].confidence > once[0].confidence);
        assert_eq!(thrice[0].support, 3);
        assert_eq!(thrice[0].docs, 3);
    }

    #[test]
    fn unknown_patterns_extract_nothing() {
        let model = trained_model();
        let cands = extract_candidates(
            &[occ("D", "completely novel pattern", "W", 1)],
            &model,
            &ExtractConfig::default(),
        );
        assert!(cands.is_empty());
    }

    #[test]
    fn min_precision_gate_applies() {
        let model = trained_model();
        let strict = ExtractConfig { min_pattern_precision: 0.99 };
        let cands = extract_candidates(&[occ("D", "was born in", "W", 1)], &model, &strict);
        assert!(cands.is_empty());
    }

    #[test]
    fn predicted_set_thresholds() {
        let cands = vec![
            CandidateFact {
                subject: "A".into(),
                relation: "r".into(),
                object: "B".into(),
                confidence: 0.9,
                support: 1,
                docs: 1,
                patterns: 1,
                hints: vec![],
            },
            CandidateFact {
                subject: "C".into(),
                relation: "r".into(),
                object: "D".into(),
                confidence: 0.2,
                support: 1,
                docs: 1,
                patterns: 1,
                hints: vec![],
            },
        ];
        let set = predicted_set(&cands, 0.5);
        assert_eq!(set.len(), 1);
        assert!(set.contains(&("A".to_string(), "r".to_string(), "B".to_string())));
    }

    #[test]
    fn output_is_sorted_by_confidence() {
        let model = trained_model();
        let occs = vec![
            occ("D", "was born in", "W", 1),
            occ("E", "was born in", "V", 1),
            occ("E", "was born in", "V", 2),
        ];
        let cands = extract_candidates(&occs, &model, &ExtractConfig::default());
        assert!(cands.windows(2).all(|w| w[0].confidence >= w[1].confidence));
        assert_eq!(cands[0].subject, "E");
    }
}
