//! Context similarity: TF-IDF profiles of candidate entities vs the
//! words surrounding a mention.
//!
//! An entity's profile gathers the salient words the KB associates with
//! it: its own labels, the labels of its graph neighbors, its classes
//! and the names of its relations — the "salient phrases associated
//! with an entity" of the tutorial.

use std::collections::HashMap;

use kb_nlp::tfidf::{SparseVector, Vocabulary};
use kb_nlp::token::{tokenize, word_texts, TokenKind};
use kb_store::{KbRead, TermId, TriplePattern};

/// Profile words for one entity, drawn from any [`KbRead`] view.
pub fn profile_words<K: KbRead + ?Sized>(kb: &K, entity: TermId) -> Vec<String> {
    let mut words: Vec<String> = Vec::new();
    let add_term_words = |t: TermId, words: &mut Vec<String>| {
        if let Some(name) = kb.resolve(t) {
            for w in name.replace('_', " ").split_whitespace() {
                words.push(w.to_lowercase());
            }
        }
    };
    add_term_words(entity, &mut words);
    for f in kb.matching_iter(&TriplePattern::with_s(entity)) {
        add_term_words(f.triple.p, &mut words);
        add_term_words(f.triple.o, &mut words);
    }
    for f in kb.matching_iter(&TriplePattern::with_o(entity)) {
        add_term_words(f.triple.p, &mut words);
        add_term_words(f.triple.s, &mut words);
    }
    words
}

/// Precomputed entity profiles over a shared vocabulary.
#[derive(Debug, Default)]
pub struct ContextIndex {
    vocab: Vocabulary,
    profiles: HashMap<TermId, SparseVector>,
}

impl ContextIndex {
    /// Builds profiles for the given entities.
    pub fn build<K: KbRead + ?Sized>(
        kb: &K,
        entities: impl IntoIterator<Item = TermId> + Clone,
    ) -> Self {
        let mut vocab = Vocabulary::new();
        let mut raw: HashMap<TermId, Vec<String>> = HashMap::new();
        for e in entities {
            let words = profile_words(kb, e);
            vocab.add_document(words.iter().map(String::as_str));
            raw.insert(e, words);
        }
        let profiles = raw
            .into_iter()
            .map(|(e, words)| (e, vocab.vectorize(words.iter().map(String::as_str))))
            .collect();
        Self { vocab, profiles }
    }

    /// Vectorizes a mention context (word window around the mention).
    pub fn context_vector(
        &self,
        text: &str,
        mention_start: usize,
        mention_end: usize,
        window: usize,
    ) -> SparseVector {
        let tokens = tokenize(text);
        // Index of the first token at/after the mention.
        let mention_first = tokens.iter().position(|t| t.end > mention_start).unwrap_or(0);
        let mention_last =
            tokens.iter().rposition(|t| t.start < mention_end).unwrap_or(mention_first);
        let lo = mention_first.saturating_sub(window);
        let hi = (mention_last + 1 + window).min(tokens.len());
        let words: Vec<String> = tokens[lo..hi]
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                let abs = lo + i;
                t.kind == TokenKind::Word && (abs < mention_first || abs > mention_last)
            })
            .map(|(_, t)| t.lower())
            .collect();
        self.vocab.vectorize(words.iter().map(String::as_str))
    }

    /// Cosine similarity between a context vector and an entity profile
    /// (0 when the entity has no profile).
    pub fn similarity(&self, context: &SparseVector, entity: TermId) -> f64 {
        self.profiles.get(&entity).map_or(0.0, |p| context.cosine(p))
    }

    /// Vectorizes arbitrary text against the profile vocabulary.
    pub fn vectorize_text(&self, text: &str) -> SparseVector {
        let words = word_texts(text);
        self.vocab.vectorize(words.iter().map(String::as_str))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbBuilder;

    /// Two "Jobs" candidates: the founder (linked to Apple/Cupertino)
    /// and a musician (linked to guitars).
    fn setup() -> (KbBuilder, TermId, TermId) {
        let mut kb = KbBuilder::new();
        let founder = kb.intern("Steve_Jobs");
        let musician = kb.intern("Jobs_Miller");
        let apple = kb.intern("Apple_Inc");
        let cupertino = kb.intern("Cupertino");
        let guitar = kb.intern("Guitar_Prize");
        let founded = kb.intern("founded");
        let lived = kb.intern("livedIn");
        kb.add_triple(founder, founded, apple);
        kb.add_triple(founder, lived, cupertino);
        let won = kb.intern("won");
        kb.add_triple(musician, won, guitar);
        (kb, founder, musician)
    }

    #[test]
    fn profiles_contain_neighborhood_words() {
        let (kb, founder, _) = setup();
        let words = profile_words(&kb, founder);
        assert!(words.contains(&"apple".to_string()));
        assert!(words.contains(&"founded".to_string()));
        assert!(words.contains(&"cupertino".to_string()));
    }

    #[test]
    fn context_prefers_the_matching_candidate() {
        let (kb, founder, musician) = setup();
        let idx = ContextIndex::build(&kb, [founder, musician]);
        let text = "Jobs started the company Apple in Cupertino garage.";
        let ctx = idx.context_vector(text, 0, 4, 12);
        let s_founder = idx.similarity(&ctx, founder);
        let s_musician = idx.similarity(&ctx, musician);
        assert!(s_founder > s_musician, "founder {s_founder} vs musician {s_musician}");
    }

    #[test]
    fn mention_tokens_are_excluded_from_context() {
        let (kb, founder, musician) = setup();
        let idx = ContextIndex::build(&kb, [founder, musician]);
        // Context consists ONLY of the mention itself -> empty vector.
        let ctx = idx.context_vector("Jobs", 0, 4, 10);
        assert!(idx.similarity(&ctx, founder).abs() < 1e-12);
        assert!(ctx.is_empty());
    }

    #[test]
    fn unknown_entity_similarity_is_zero() {
        let (kb, founder, _) = setup();
        let idx = ContextIndex::build(&kb, [founder]);
        let ctx = idx.vectorize_text("apple cupertino");
        assert_eq!(idx.similarity(&ctx, TermId(999)), 0.0);
    }

    #[test]
    fn window_limits_the_context() {
        let (kb, founder, musician) = setup();
        let idx = ContextIndex::build(&kb, [founder, musician]);
        let text = "Jobs spoke. Far far away away away away away away away Apple Cupertino.";
        let narrow = idx.context_vector(text, 0, 4, 2);
        let wide = idx.context_vector(text, 0, 4, 50);
        assert!(idx.similarity(&wide, founder) > idx.similarity(&narrow, founder));
    }
}
