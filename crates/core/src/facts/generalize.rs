//! Pattern generalization via frequent-subsequence mining.
//!
//! Surface patterns are brittle: `"was originally born in"` never
//! matches the learned `"was born in"`. Following the tutorial's note
//! that open/closed IE systems exploit "big-data techniques like
//! frequent sequence mining", this module mines the frequent *gapped*
//! subsequences (PrefixSpan) of each relation's learned infixes and
//! matches new occurrences against those generalized skeletons —
//! trading a little precision for paraphrase-robust recall.

use std::collections::HashMap;

use kb_nlp::seqmine::prefix_span;

use super::distant::PatternModel;
use super::extract::CandidateFact;
use super::patterns::{PatternOccurrence, TimeHint};

/// A generalized pattern: an ordered token skeleton that must appear
/// (possibly with gaps) inside an occurrence's infix.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneralizedPattern {
    /// The skeleton tokens, in order.
    pub skeleton: Vec<String>,
    /// The relation it predicts.
    pub relation: String,
    /// Whether the skeleton was learned from reversed-orientation
    /// patterns (object first in text).
    pub reversed: bool,
    /// Confidence inherited from the supporting exact patterns
    /// (their mean precision, discounted).
    pub confidence: f64,
}

/// Generalization parameters.
#[derive(Debug, Clone, Copy)]
pub struct GeneralizeConfig {
    /// A skeleton must be supported by at least this many distinct
    /// exact patterns of the same relation.
    pub min_pattern_support: usize,
    /// Minimum skeleton length in tokens (1-token skeletons like "in"
    /// are hopelessly unspecific).
    pub min_skeleton_len: usize,
    /// Confidence discount relative to the supporting exact patterns.
    pub confidence_discount: f64,
}

impl Default for GeneralizeConfig {
    fn default() -> Self {
        Self { min_pattern_support: 2, min_skeleton_len: 2, confidence_discount: 0.7 }
    }
}

/// Mines generalized skeletons from a learned pattern model.
pub fn generalize(model: &PatternModel, cfg: &GeneralizeConfig) -> Vec<GeneralizedPattern> {
    let mut out = Vec::new();
    for (reversed, table) in [(false, &model.forward), (true, &model.reversed)] {
        // Group exact infixes by predicted relation.
        let mut by_relation: HashMap<&str, Vec<(&str, f64)>> = HashMap::new();
        for (infix, stats) in table {
            for (rel, &(precision, _)) in &stats.relations {
                by_relation.entry(rel).or_default().push((infix, precision));
            }
        }
        for (rel, patterns) in by_relation {
            if patterns.len() < cfg.min_pattern_support {
                continue;
            }
            let sequences: Vec<Vec<String>> = patterns
                .iter()
                .map(|(infix, _)| infix.split(' ').map(str::to_string).collect())
                .collect();
            let mean_precision: f64 =
                patterns.iter().map(|&(_, p)| p).sum::<f64>() / patterns.len() as f64;
            for mined in prefix_span(&sequences, cfg.min_pattern_support, 4) {
                if mined.items.len() < cfg.min_skeleton_len {
                    continue;
                }
                // Skeletons equal to some exact pattern are fine: the
                // generalized layer only fires on occurrences the exact
                // model missed, so there is no double counting.
                out.push(GeneralizedPattern {
                    skeleton: mined.items,
                    relation: rel.to_string(),
                    reversed,
                    confidence: (mean_precision * cfg.confidence_discount).clamp(0.0, 0.99),
                });
            }
        }
    }
    // Deduplicate identical skeleton/relation/orientation entries.
    out.sort_by(|a, b| {
        (&a.relation, &a.skeleton, a.reversed)
            .cmp(&(&b.relation, &b.skeleton, b.reversed))
            .then(b.confidence.partial_cmp(&a.confidence).unwrap_or(std::cmp::Ordering::Equal))
    });
    out.dedup_by(|a, b| {
        a.relation == b.relation && a.skeleton == b.skeleton && a.reversed == b.reversed
    });
    out
}

/// Whether `skeleton` occurs (in order, gaps allowed) in `tokens`.
fn is_subsequence(skeleton: &[String], tokens: &[&str]) -> bool {
    let mut it = tokens.iter();
    skeleton.iter().all(|s| it.any(|t| *t == s))
}

/// Applies generalized patterns to occurrences the exact model missed,
/// producing extra candidate facts.
pub(crate) fn extract_generalized(
    occurrences: &[PatternOccurrence],
    model: &PatternModel,
    generalized: &[GeneralizedPattern],
) -> Vec<CandidateFact> {
    struct Agg {
        confidence: f64,
        support: usize,
        docs: std::collections::HashSet<u32>,
        hints: Vec<TimeHint>,
    }
    let mut by_key: HashMap<(String, String, String), Agg> = HashMap::new();
    for occ in occurrences {
        // Skip occurrences the exact model already understands — the
        // generalized layer only adds what exact matching missed.
        if model.predictions(&occ.pattern, false).is_some()
            || model.predictions(&occ.pattern, true).is_some()
        {
            continue;
        }
        let tokens: Vec<&str> = occ.pattern.infix.split(' ').collect();
        for g in generalized {
            if !is_subsequence(&g.skeleton, &tokens) {
                continue;
            }
            let (s, o) = if g.reversed {
                (occ.second.clone(), occ.first.clone())
            } else {
                (occ.first.clone(), occ.second.clone())
            };
            let agg = by_key.entry((s, g.relation.clone(), o)).or_insert_with(|| Agg {
                confidence: 0.0,
                support: 0,
                docs: std::collections::HashSet::new(),
                hints: Vec::new(),
            });
            agg.confidence = 1.0 - (1.0 - agg.confidence) * (1.0 - g.confidence);
            agg.support += 1;
            agg.docs.insert(occ.doc_id);
            if let Some(h) = occ.hint {
                agg.hints.push(h);
            }
        }
    }
    let mut out: Vec<CandidateFact> = by_key
        .into_iter()
        .map(|((subject, relation, object), agg)| CandidateFact {
            subject,
            relation,
            object,
            confidence: agg.confidence,
            support: agg.support,
            docs: agg.docs.len(),
            patterns: 1,
            hints: agg.hints,
        })
        .collect();
    out.sort_by_key(|a| a.key());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::distant::{train, TrainConfig};
    use crate::facts::patterns::PatternKey;
    use std::collections::HashSet;

    fn occ(first: &str, infix: &str, second: &str) -> PatternOccurrence {
        PatternOccurrence {
            doc_id: 0,
            first: first.into(),
            second: second.into(),
            pattern: PatternKey { infix: infix.into(), reversed: false },
            hint: None,
        }
    }

    /// Trains a model with two paraphrases of bornIn sharing the
    /// skeleton "born in".
    fn model() -> PatternModel {
        let occs = vec![
            occ("A", "was born in", "X"),
            occ("B", "was born in", "Y"),
            occ("C", "born in", "Z"),
            occ("D", "born in", "W"),
        ];
        let seeds: HashSet<(String, String, String)> =
            [("A", "X"), ("B", "Y"), ("C", "Z"), ("D", "W")]
                .into_iter()
                .map(|(s, o)| (s.to_string(), "bornIn".to_string(), o.to_string()))
                .collect();
        train(&occs, &seeds, &TrainConfig::default())
    }

    #[test]
    fn skeletons_are_mined_across_paraphrases() {
        let g = generalize(&model(), &GeneralizeConfig::default());
        assert!(
            g.iter().any(|p| p.skeleton == vec!["born", "in"] && p.relation == "bornIn"),
            "missing 'born in' skeleton: {g:?}"
        );
        // Confidence is discounted below the exact patterns' precision.
        let born_in = g.iter().find(|p| p.skeleton == vec!["born", "in"]).unwrap();
        assert!(born_in.confidence < 0.9);
    }

    #[test]
    fn generalized_extraction_catches_new_paraphrases() {
        let m = model();
        let g = generalize(&m, &GeneralizeConfig::default());
        // "was originally born in" is unseen as an exact pattern.
        let new = vec![occ("E", "was originally born in", "V")];
        let found = extract_generalized(&new, &m, &g);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].subject, "E");
        assert_eq!(found[0].relation, "bornIn");
        assert!(found[0].confidence > 0.2);
    }

    #[test]
    fn exactly_matched_occurrences_are_left_alone() {
        let m = model();
        let g = generalize(&m, &GeneralizeConfig::default());
        let seen = vec![occ("F", "was born in", "U")];
        assert!(extract_generalized(&seen, &m, &g).is_empty());
    }

    #[test]
    fn skeleton_order_matters() {
        let m = model();
        let g = generalize(&m, &GeneralizeConfig::default());
        // "in born" reverses the skeleton order: no match.
        let scrambled = vec![occ("G", "in was born", "T")];
        assert!(extract_generalized(&scrambled, &m, &g).is_empty());
    }

    #[test]
    fn empty_model_generalizes_to_nothing() {
        let g = generalize(&PatternModel::default(), &GeneralizeConfig::default());
        assert!(g.is_empty());
    }
}
