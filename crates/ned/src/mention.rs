//! Dictionary-based mention detection: longest-match lookup of KB
//! surface forms over capitalized token spans.

use kb_nlp::token::{tokenize, Token, TokenKind};
use kb_store::KbRead;

/// A detected mention span (byte offsets into the input text).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectedMention {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// The surface form as written.
    pub surface: String,
}

/// Maximum mention length in tokens.
const MAX_MENTION_TOKENS: usize = 5;

/// Detects entity mentions: the longest token spans (up to 5 tokens)
/// starting at a capitalized word or number whose surface form is a
/// known KB label. Greedy left-to-right, non-overlapping.
pub fn detect_mentions<K: KbRead + ?Sized>(kb: &K, text: &str) -> Vec<DetectedMention> {
    let tokens: Vec<Token> = tokenize(text);
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        let starts_candidate = t.kind == TokenKind::Word && t.is_capitalized();
        if !starts_candidate {
            i += 1;
            continue;
        }
        let mut matched: Option<usize> = None; // index of last token in match
        let max_j = (i + MAX_MENTION_TOKENS).min(tokens.len());
        for j in (i..max_j).rev() {
            // Span tokens i..=j must be words/numbers (no punctuation).
            if tokens[i..=j].iter().any(|t| t.kind == TokenKind::Punct) {
                continue;
            }
            let surface = &text[tokens[i].start..tokens[j].end];
            if !kb.labels().candidate_entities(surface).is_empty() {
                matched = Some(j);
                break;
            }
        }
        match matched {
            Some(j) => {
                out.push(DetectedMention {
                    start: tokens[i].start,
                    end: tokens[j].end,
                    surface: text[tokens[i].start..tokens[j].end].to_string(),
                });
                i = j + 1;
            }
            None => i += 1,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbBuilder;

    fn kb_with_labels(labels: &[(&str, &str)]) -> KbBuilder {
        let mut kb = KbBuilder::new();
        let en = kb.labels.lang("en");
        for (entity, label) in labels {
            let t = kb.intern(entity);
            kb.labels.add(t, en, label);
        }
        kb
    }

    #[test]
    fn longest_match_wins() {
        let kb = kb_with_labels(&[
            ("Steve_Jobs", "Steve Jobs"),
            ("Steve_Jobs", "Jobs"),
            ("Steve_W", "Steve"),
        ]);
        let m = detect_mentions(&kb, "I met Steve Jobs yesterday.");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].surface, "Steve Jobs");
    }

    #[test]
    fn non_overlapping_greedy() {
        let kb = kb_with_labels(&[("A_B", "Alpha Beta"), ("B_C", "Beta Gamma")]);
        let m = detect_mentions(&kb, "Alpha Beta Gamma");
        // Greedy takes "Alpha Beta"; "Gamma" alone is unknown.
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].surface, "Alpha Beta");
    }

    #[test]
    fn lowercase_words_do_not_start_mentions() {
        let kb = kb_with_labels(&[("Jobs_", "jobs")]);
        let m = detect_mentions(&kb, "many jobs were created");
        assert!(m.is_empty(), "lowercase token must not trigger");
    }

    #[test]
    fn unknown_names_are_skipped() {
        let kb = kb_with_labels(&[("Known", "Known")]);
        let m = detect_mentions(&kb, "Unknown person met Known there.");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].surface, "Known");
    }

    #[test]
    fn offsets_slice_correctly() {
        let kb = kb_with_labels(&[("Lundholm", "Lundholm")]);
        let text = "He lives in Lundholm now.";
        let m = detect_mentions(&kb, text);
        assert_eq!(&text[m[0].start..m[0].end], "Lundholm");
    }

    #[test]
    fn punctuation_breaks_spans() {
        let kb = kb_with_labels(&[("X", "Alpha . Beta")]);
        let m = detect_mentions(&kb, "Alpha . Beta");
        assert!(m.is_empty(), "spans across punctuation are not mentions");
    }

    #[test]
    fn versioned_product_names_match() {
        let kb = kb_with_labels(&[("Strato_3", "Strato 3")]);
        let m = detect_mentions(&kb, "I bought the Strato 3 today.");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].surface, "Strato 3");
    }
}
