//! Temporal knowledge harvesting (tutorial §3): tagging temporal
//! expressions and inferring the timespans during which facts hold
//! (YAGO2 lineage).
//!
//! The tagger, which the pattern extractor runs on every sentence it
//! takes an occurrence from, recognizes year expressions (`in 1976`,
//! `from 1970 to 1985`) and keeps one hint per sentence, an interval
//! over a bare year; the inference step here aggregates the hints
//! attached to a candidate fact's supporting sentences into a single
//! [`TimeSpan`] by majority vote over begin years (and end years when
//! present).

use std::collections::HashMap;

use kb_store::{TimePoint, TimeSpan};

use crate::facts::patterns::TimeHint;

/// Infers a single timespan from a fact's collected hints.
///
/// Interval hints (`from A to B`) dominate: the modal (most frequent)
/// interval wins. Otherwise the modal begin year becomes the span's
/// begin with an open end. Returns `None` when no hints exist.
pub fn infer_span(hints: &[TimeHint]) -> Option<TimeSpan> {
    if hints.is_empty() {
        return None;
    }
    // Prefer full intervals.
    let mut interval_votes: HashMap<(i32, i32), usize> = HashMap::new();
    for h in hints {
        if let (Some(b), Some(e)) = (h.begin, h.end) {
            *interval_votes.entry((b, e)).or_insert(0) += 1;
        }
    }
    if let Some(((b, e), _)) =
        interval_votes.into_iter().max_by_key(|&(k, v)| (v, std::cmp::Reverse(k)))
    {
        return TimeSpan::between(TimePoint::year(b), TimePoint::year(e)).ok();
    }
    let mut begin_votes: HashMap<i32, usize> = HashMap::new();
    for h in hints {
        if let Some(b) = h.begin {
            *begin_votes.entry(b).or_insert(0) += 1;
        }
    }
    begin_votes
        .into_iter()
        .max_by_key(|&(year, votes)| (votes, std::cmp::Reverse(year)))
        .map(|(year, _)| TimeSpan::since(TimePoint::year(year)))
}

/// Accuracy of inferred spans against gold `(begin, end)` years:
/// a span is correct when its begin year matches the gold begin (and
/// its end matches when gold has one and the span claims one).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TemporalAccuracy {
    /// Facts with any inferred span.
    pub inferred: usize,
    /// Inferred spans whose begin matches gold.
    pub begin_correct: usize,
    /// Inferred interval spans whose end also matches gold.
    pub end_correct: usize,
    /// Facts evaluated (gold temporal facts seen).
    pub total: usize,
}

impl TemporalAccuracy {
    /// Begin-year accuracy over inferred spans.
    pub fn begin_accuracy(&self) -> f64 {
        if self.inferred == 0 {
            0.0
        } else {
            self.begin_correct as f64 / self.inferred as f64
        }
    }

    /// Coverage: inferred / total.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.inferred as f64 / self.total as f64
        }
    }
}

/// Scores inferred spans against gold years.
pub fn score_spans(inferred: &[(Option<TimeSpan>, Option<i32>, Option<i32>)]) -> TemporalAccuracy {
    let mut acc = TemporalAccuracy { inferred: 0, begin_correct: 0, end_correct: 0, total: 0 };
    for (span, gold_begin, gold_end) in inferred {
        acc.total += 1;
        let Some(span) = span else { continue };
        acc.inferred += 1;
        if let (Some(b), Some(gb)) = (span.begin, gold_begin) {
            if b.year == *gb {
                acc.begin_correct += 1;
                if let (Some(e), Some(ge)) = (span.end, gold_end) {
                    if e.year == *ge {
                        acc.end_correct += 1;
                    }
                }
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::patterns::sentence_time_hint;

    fn hint(b: Option<i32>, e: Option<i32>) -> TimeHint {
        TimeHint { begin: b, end: e }
    }

    #[test]
    fn tags_in_year() {
        let tag = sentence_time_hint("Jobs founded Apple in 1976.");
        assert_eq!(tag, Some(hint(Some(1976), None)));
    }

    #[test]
    fn tags_from_to_without_double_counting() {
        let tag = sentence_time_hint("She worked there from 1970 to 1985 happily.");
        assert_eq!(tag, Some(hint(Some(1970), Some(1985))));
    }

    #[test]
    fn mixed_expressions() {
        // The interval wins over the bare year before it.
        let tag = sentence_time_hint("Born in 1955, he worked from 1970 to 1985.");
        assert_eq!(tag, Some(hint(Some(1970), Some(1985))));
    }

    #[test]
    fn non_years_are_ignored() {
        assert_eq!(sentence_time_hint("in 12 days from 3 to 5"), None);
        assert_eq!(sentence_time_hint("no numbers at all"), None);
    }

    #[test]
    fn infer_prefers_modal_interval() {
        let hints = vec![
            hint(Some(1970), Some(1985)),
            hint(Some(1970), Some(1985)),
            hint(Some(1971), Some(1985)),
            hint(Some(1999), None),
        ];
        let span = infer_span(&hints).unwrap();
        assert_eq!(span.begin.unwrap().year, 1970);
        assert_eq!(span.end.unwrap().year, 1985);
    }

    #[test]
    fn infer_falls_back_to_modal_begin() {
        let hints = vec![hint(Some(1976), None), hint(Some(1976), None), hint(Some(1980), None)];
        let span = infer_span(&hints).unwrap();
        assert_eq!(span.begin.unwrap().year, 1976);
        assert!(span.end.is_none());
    }

    #[test]
    fn infer_none_without_hints() {
        assert!(infer_span(&[]).is_none());
        assert!(infer_span(&[hint(None, None)]).is_none());
    }

    #[test]
    fn tie_break_is_deterministic() {
        let hints = vec![hint(Some(1970), None), hint(Some(1980), None)];
        // Tie: the smaller year wins via Reverse ordering.
        assert_eq!(infer_span(&hints).unwrap().begin.unwrap().year, 1970);
    }

    #[test]
    fn scoring_counts_correctly() {
        let span7076 = TimeSpan::between(TimePoint::year(1970), TimePoint::year(1976)).ok();
        let span_since = Some(TimeSpan::since(TimePoint::year(1980)));
        let rows = vec![
            (span7076, Some(1970), Some(1976)), // begin+end correct
            (span_since, Some(1980), None),     // begin correct
            (span_since, Some(1999), None),     // begin wrong
            (None, Some(1970), None),           // not inferred
        ];
        let acc = score_spans(&rows);
        assert_eq!(acc.total, 4);
        assert_eq!(acc.inferred, 3);
        assert_eq!(acc.begin_correct, 2);
        assert_eq!(acc.end_correct, 1);
        assert!((acc.begin_accuracy() - 2.0 / 3.0).abs() < 1e-12);
        assert!((acc.coverage() - 0.75).abs() < 1e-12);
    }
}
