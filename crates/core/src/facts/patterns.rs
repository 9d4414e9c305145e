//! Pattern-occurrence collection: the raw material of pattern-based
//! fact harvesting.
//!
//! For every sentence and every ordered pair of entity mentions in it
//! (bounded gap), we record the normalized *infix* — the word tokens
//! between the two mentions — together with temporal hints found in the
//! sentence. `"Jobs founded Apple in 1976."` yields the occurrence
//! `(Jobs, "founded", Apple)` with begin-hint 1976.

use kb_corpus::Doc;
use kb_nlp::sentence::split_sentences;
use kb_nlp::token::{tokenize, TokenKind};

/// A normalized surface pattern: the infix word sequence between the
/// two arguments. The *subject-first* orientation is part of the key:
/// `"founded"` (S before O) and `"was founded by"` (O before S, i.e.
/// `reversed`) are distinct patterns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternKey {
    /// Lowercased infix words joined by spaces.
    pub infix: String,
    /// Whether the *second* mention in text order is the pattern's
    /// logical first argument (passive voice etc.). At collection time
    /// this is always `false`; the distant-supervision step learns each
    /// pattern in both orientations.
    pub reversed: bool,
}

/// A temporal hint found in the occurrence's sentence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeHint {
    /// Begin year, if stated.
    pub begin: Option<i32>,
    /// End year, if stated ("from A to B").
    pub end: Option<i32>,
}

/// One co-occurrence of two entity mentions in a sentence.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternOccurrence {
    /// Document id.
    pub doc_id: u32,
    /// Canonical name of the first mention (text order).
    pub first: String,
    /// Canonical name of the second mention (text order).
    pub second: String,
    /// The normalized infix pattern.
    pub pattern: PatternKey,
    /// Temporal hint from the same sentence, if any.
    pub hint: Option<TimeHint>,
}

/// Collection parameters.
#[derive(Debug, Clone, Copy)]
pub struct CollectConfig {
    /// Maximum number of infix tokens between the two mentions.
    pub max_gap: usize,
    /// Maximum mention pairs per sentence (guards pathological lists).
    pub max_pairs_per_sentence: usize,
}

impl Default for CollectConfig {
    fn default() -> Self {
        Self { max_gap: 8, max_pairs_per_sentence: 24 }
    }
}

/// Collects all pattern occurrences from one document.
pub(crate) fn collect_occurrences<'a>(
    doc: &Doc,
    canonical_of: &impl Fn(kb_corpus::EntityId) -> &'a str,
    cfg: &CollectConfig,
) -> Vec<PatternOccurrence> {
    let mut out = Vec::new();
    for sent in split_sentences(&doc.text) {
        let sentence = &doc.text[sent.start..sent.end];
        // Mentions inside this sentence, in text order.
        let mentions: Vec<_> =
            doc.mentions.iter().filter(|m| m.start >= sent.start && m.end <= sent.end).collect();
        if mentions.len() < 2 {
            continue;
        }
        let hint = sentence_time_hint(sentence);
        let mut pairs = 0;
        for i in 0..mentions.len() - 1 {
            let a = mentions[i];
            let b = mentions[i + 1..].iter().find(|m| m.start >= a.end).copied();
            // Only adjacent mention pairs: the infix must not contain a
            // third mention, which would almost always break the pattern.
            let Some(b) = b else { continue };
            if a.entity == b.entity {
                continue;
            }
            let gap_text = &doc.text[a.end..b.start];
            let infix_tokens: Vec<String> = tokenize(gap_text)
                .into_iter()
                .filter(|t| t.kind == TokenKind::Word)
                .map(|t| t.lower())
                .collect();
            if infix_tokens.is_empty() || infix_tokens.len() > cfg.max_gap {
                continue;
            }
            out.push(PatternOccurrence {
                doc_id: doc.id,
                first: canonical_of(a.entity).to_string(),
                second: canonical_of(b.entity).to_string(),
                pattern: PatternKey { infix: infix_tokens.join(" "), reversed: false },
                hint,
            });
            pairs += 1;
            if pairs >= cfg.max_pairs_per_sentence {
                break;
            }
        }
    }
    out
}

/// Extracts the sentence-level temporal hint: `from Y1 to Y2` wins over
/// a bare `in Y`; the first match of each shape is used.
pub(crate) fn sentence_time_hint(sentence: &str) -> Option<TimeHint> {
    let toks = tokenize(sentence);
    // from Y1 to Y2
    for w in toks.windows(4) {
        if w[0].kind == TokenKind::Word
            && w[0].lower() == "from"
            && w[1].kind == TokenKind::Number
            && w[2].lower() == "to"
            && w[3].kind == TokenKind::Number
        {
            if let (Some(a), Some(b)) = (parse_year(&w[1].text), parse_year(&w[3].text)) {
                return Some(TimeHint { begin: Some(a), end: Some(b) });
            }
        }
    }
    // in Y
    for w in toks.windows(2) {
        if w[0].kind == TokenKind::Word && w[0].lower() == "in" && w[1].kind == TokenKind::Number {
            if let Some(y) = parse_year(&w[1].text) {
                return Some(TimeHint { begin: Some(y), end: None });
            }
        }
    }
    None
}

/// Parses a plausible year (4 digits, 1000–2999).
pub(crate) fn parse_year(text: &str) -> Option<i32> {
    if text.len() != 4 {
        return None;
    }
    let y: i32 = text.parse().ok()?;
    (1000..3000).contains(&y).then_some(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_corpus::doc::TextBuilder;
    use kb_corpus::{DocKind, EntityId};

    fn doc(parts: &[(&str, Option<u32>)]) -> Doc {
        let mut b = TextBuilder::new();
        for (s, e) in parts {
            match e {
                Some(id) => b.push_mention(s, EntityId(*id)),
                None => b.push(s),
            }
        }
        let (text, mentions) = b.finish();
        Doc {
            id: 7,
            kind: DocKind::Article,
            title: "t".into(),
            subject: None,
            text,
            mentions,
            infobox: vec![],
            categories: vec![],
        }
    }

    fn name(id: EntityId) -> &'static str {
        ["E0", "E1", "E2", "E3"][id.0 as usize]
    }

    #[test]
    fn simple_svo_occurrence() {
        let d = doc(&[
            ("Jobs", Some(1)),
            (" founded ", None),
            ("Apple", Some(2)),
            (" in 1976. ", None),
        ]);
        let occ = collect_occurrences(&d, &|id| name(id), &CollectConfig::default());
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[0].first, "E1");
        assert_eq!(occ[0].second, "E2");
        assert_eq!(occ[0].pattern.infix, "founded");
        assert_eq!(occ[0].hint, Some(TimeHint { begin: Some(1976), end: None }));
    }

    #[test]
    fn passive_pattern_is_collected_verbatim() {
        let d =
            doc(&[("Apple", Some(2)), (" was founded by ", None), ("Jobs", Some(1)), (". ", None)]);
        let occ = collect_occurrences(&d, &|id| name(id), &CollectConfig::default());
        assert_eq!(occ[0].pattern.infix, "was founded by");
        assert_eq!(occ[0].first, "E2");
        assert_eq!(occ[0].second, "E1");
    }

    #[test]
    fn from_to_hint_wins() {
        let d = doc(&[
            ("A", Some(1)),
            (" worked at ", None),
            ("B", Some(2)),
            (" from 1970 to 1985. ", None),
        ]);
        let occ = collect_occurrences(&d, &|id| name(id), &CollectConfig::default());
        assert_eq!(occ[0].hint, Some(TimeHint { begin: Some(1970), end: Some(1985) }));
    }

    #[test]
    fn cross_sentence_pairs_are_not_collected() {
        let d =
            doc(&[("Jobs", Some(1)), (" retired. ", None), ("Apple", Some(2)), (" grew. ", None)]);
        let occ = collect_occurrences(&d, &|id| name(id), &CollectConfig::default());
        assert!(occ.is_empty());
    }

    #[test]
    fn gap_limit_is_enforced() {
        let filler = " very very very very very very very very very long gap ";
        let d = doc(&[("A", Some(1)), (filler, None), ("B", Some(2)), (". ", None)]);
        let cfg = CollectConfig { max_gap: 5, ..Default::default() };
        assert!(collect_occurrences(&d, &|id| name(id), &cfg).is_empty());
    }

    #[test]
    fn empty_infix_pairs_are_skipped() {
        let d = doc(&[("A", Some(1)), (", ", None), ("B", Some(2)), (". ", None)]);
        assert!(collect_occurrences(&d, &|id| name(id), &CollectConfig::default()).is_empty());
    }

    #[test]
    fn only_adjacent_mention_pairs() {
        // A founded B in C -> pairs (A,B) and (B,C), but not (A,C).
        let d = doc(&[
            ("A", Some(1)),
            (" founded ", None),
            ("B", Some(2)),
            (" in ", None),
            ("C", Some(3)),
            (". ", None),
        ]);
        let occ = collect_occurrences(&d, &|id| name(id), &CollectConfig::default());
        assert_eq!(occ.len(), 2);
        assert!(occ.iter().all(|o| !(o.first == "E1" && o.second == "E3")));
    }

    #[test]
    fn same_entity_pairs_are_skipped() {
        let d = doc(&[("A", Some(1)), (" loves ", None), ("A", Some(1)), (". ", None)]);
        assert!(collect_occurrences(&d, &|id| name(id), &CollectConfig::default()).is_empty());
    }

    #[test]
    fn year_parser_bounds() {
        assert_eq!(parse_year("1976"), Some(1976));
        assert_eq!(parse_year("0999"), None);
        assert_eq!(parse_year("12345"), None);
        assert_eq!(parse_year("19a6"), None);
    }
}
