//! NED evaluation against gold-annotated documents: overall and
//! per-ambiguity-bin accuracy (experiments T5 and F3).

use kb_store::{KbRead, TermId};

use crate::system::{Ned, Strategy};

/// Accuracy breakdown.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NedAccuracy {
    /// Mentions evaluated (gold entity known to the KB).
    pub total: usize,
    /// Correctly disambiguated mentions.
    pub correct: usize,
    /// Mentions with ≥ 2 candidates.
    pub ambiguous: usize,
    /// Correct among the ambiguous.
    pub ambiguous_correct: usize,
    /// Per-ambiguity histogram: (candidate count, total, correct),
    /// candidate counts ≥ 5 pooled into the last bucket.
    pub by_ambiguity: Vec<(usize, usize, usize)>,
}

impl NedAccuracy {
    /// Overall accuracy.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Accuracy restricted to ambiguous mentions.
    pub fn ambiguous_accuracy(&self) -> f64 {
        if self.ambiguous == 0 {
            0.0
        } else {
            self.ambiguous_correct as f64 / self.ambiguous as f64
        }
    }
}

/// One gold-annotated document for evaluation.
#[derive(Debug, Clone)]
pub struct GoldDoc<'a> {
    /// Document text.
    pub text: &'a str,
    /// Gold mentions: `(start, end, gold entity)`.
    pub mentions: Vec<(usize, usize, TermId)>,
}

/// Evaluates a strategy over gold documents. Mentions whose gold entity
/// has no candidates at all still count (as errors) — coverage matters.
pub fn evaluate<K: KbRead + ?Sized>(
    ned: &Ned<'_, K>,
    docs: &[GoldDoc<'_>],
    strategy: Strategy,
) -> NedAccuracy {
    let mut acc = NedAccuracy::default();
    let mut bins: std::collections::HashMap<usize, (usize, usize)> =
        std::collections::HashMap::new();
    for doc in docs {
        let spans: Vec<(usize, usize)> = doc.mentions.iter().map(|&(s, e, _)| (s, e)).collect();
        let out = ned.disambiguate(doc.text, &spans, strategy);
        for ((start, end, gold), predicted) in doc.mentions.iter().zip(out) {
            let surface = &doc.text[*start..*end];
            let ambiguity = ned.ambiguity(surface);
            acc.total += 1;
            let bucket = ambiguity.min(5);
            let bin = bins.entry(bucket).or_insert((0, 0));
            bin.0 += 1;
            let correct = predicted == Some(*gold);
            if correct {
                acc.correct += 1;
                bin.1 += 1;
            }
            if ambiguity >= 2 {
                acc.ambiguous += 1;
                if correct {
                    acc.ambiguous_correct += 1;
                }
            }
        }
    }
    let mut by_ambiguity: Vec<(usize, usize, usize)> =
        bins.into_iter().map(|(k, (total, correct))| (k, total, correct)).collect();
    by_ambiguity.sort_unstable();
    acc.by_ambiguity = by_ambiguity;
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbBuilder;

    fn setup() -> (KbBuilder, TermId, TermId) {
        let mut kb = KbBuilder::new();
        let alan = kb.intern("Alan_Varen");
        let bea = kb.intern("Bea_Varen");
        let acme = kb.intern("AcmeCo");
        let works = kb.intern("worksAt");
        kb.add_triple(alan, works, acme);
        let en = kb.labels.lang("en");
        kb.labels.add(alan, en, "Varen");
        kb.labels.add(bea, en, "Varen");
        kb.labels.add(acme, en, "AcmeCo");
        (kb, alan, bea)
    }

    #[test]
    fn evaluation_counts_correct_and_ambiguous() {
        let (kb, alan, _) = setup();
        let mut ned = Ned::new(&kb);
        ned.add_anchor("Varen", alan);
        ned.finalize();
        let text = "Varen works at AcmeCo.";
        let docs = vec![GoldDoc {
            text,
            mentions: vec![(0, 5, alan), (15, 21, kb.term("AcmeCo").unwrap())],
        }];
        let acc = evaluate(&ned, &docs, Strategy::Prior);
        assert_eq!(acc.total, 2);
        assert_eq!(acc.correct, 2);
        assert_eq!(acc.ambiguous, 1, "only Varen is ambiguous");
        assert_eq!(acc.accuracy(), 1.0);
        assert_eq!(acc.ambiguous_accuracy(), 1.0);
    }

    #[test]
    fn wrong_predictions_are_counted() {
        let (kb, alan, bea) = setup();
        let mut ned = Ned::new(&kb);
        // All anchors point at Alan; gold says Bea.
        ned.add_anchor("Varen", alan);
        ned.finalize();
        let docs = vec![GoldDoc { text: "Varen sang.", mentions: vec![(0, 5, bea)] }];
        let acc = evaluate(&ned, &docs, Strategy::Prior);
        assert_eq!(acc.total, 1);
        assert_eq!(acc.correct, 0);
        assert_eq!(acc.ambiguous_accuracy(), 0.0);
    }

    #[test]
    fn ambiguity_bins_accumulate() {
        let (kb, alan, _) = setup();
        let mut ned = Ned::new(&kb);
        ned.add_anchor("Varen", alan);
        ned.finalize();
        let docs = vec![
            GoldDoc { text: "Varen spoke.", mentions: vec![(0, 5, alan)] },
            GoldDoc { text: "Varen sat.", mentions: vec![(0, 5, alan)] },
        ];
        let acc = evaluate(&ned, &docs, Strategy::Prior);
        let bin2 = acc.by_ambiguity.iter().find(|&&(k, _, _)| k == 2).unwrap();
        assert_eq!(bin2.1, 2);
        assert_eq!(bin2.2, 2);
    }

    #[test]
    fn empty_docs_give_zero_accuracy() {
        let (kb, _, _) = setup();
        let mut ned = Ned::new(&kb);
        ned.finalize();
        let acc = evaluate(&ned, &[], Strategy::Prior);
        assert_eq!(acc.accuracy(), 0.0);
        assert_eq!(acc.total, 0);
    }
}
