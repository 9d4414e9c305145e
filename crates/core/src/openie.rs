//! Open information extraction (tutorial §3): ReVerb-style extraction of
//! arbitrary SPO triples from text, with no pre-specified relation
//! vocabulary.
//!
//! For each sentence: POS-tag, chunk, and find verb phrases; the
//! relation phrase is the VP plus an immediately following preposition
//! ("was founded" + "by"); arg1 is the nearest non-pronoun NP to the
//! left, arg2 the nearest NP to the right. Two ReVerb constraints are
//! applied:
//!
//! * **syntactic** — the relation phrase must match the V | V P | V W* P
//!   shape, which the chunker guarantees;
//! * **lexical** — the normalized relation phrase must occur with at
//!   least [`OpenIeConfig::min_distinct_pairs`] distinct argument pairs
//!   corpus-wide, pruning overly specific or garbled phrases.

use std::collections::{HashMap, HashSet};

use kb_corpus::Doc;
use kb_nlp::chunk::{chunk, Chunk, ChunkKind};
use kb_nlp::pos::{PosTag, PosTagger};
use kb_nlp::sentence::split_sentences;
use kb_nlp::stem::stem;
use kb_nlp::token::{tokenize, Token};

/// One open extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenFact {
    /// First argument (surface form of the NP, determiners stripped).
    pub arg1: String,
    /// Normalized relation phrase (lowercased, stemmed content words).
    pub relation: String,
    /// The relation phrase as written.
    pub relation_surface: String,
    /// Second argument surface form.
    pub arg2: String,
    /// Heuristic confidence in `[0, 1]`.
    pub confidence: f64,
    /// Source document.
    pub doc_id: u32,
}

/// Extraction parameters.
#[derive(Debug, Clone, Copy)]
pub struct OpenIeConfig {
    /// Lexical constraint: minimum distinct argument pairs per phrase.
    pub min_distinct_pairs: usize,
    /// Maximum tokens in a relation phrase.
    pub max_phrase_tokens: usize,
}

impl Default for OpenIeConfig {
    fn default() -> Self {
        Self { min_distinct_pairs: 2, max_phrase_tokens: 5 }
    }
}

/// Extracts raw (unfiltered) open facts from one document: the per-doc
/// map step of the pipeline. The lexical constraint needs corpus-wide
/// statistics and is applied afterwards by
/// [`apply_lexical_constraint`].
pub(crate) fn extract_raw(doc: &Doc, cfg: &OpenIeConfig) -> Vec<OpenFact> {
    let tagger = PosTagger::new();
    let mut raw: Vec<OpenFact> = Vec::new();
    for sent in split_sentences(&doc.text) {
        let text = &doc.text[sent.start..sent.end];
        let tokens = tokenize(text);
        let tags = tagger.tag(&tokens);
        let chunks = chunk(&tokens, &tags);
        raw.extend(extract_from_chunks(&tokens, &tags, &chunks, doc.id, cfg));
    }
    raw
}

/// Runs Open IE over a document collection. Extractions failing the
/// lexical constraint are dropped; survivors get frequency-aware
/// confidences. Output is sorted by descending confidence, then args.
pub fn extract_open(docs: &[&Doc], cfg: &OpenIeConfig) -> Vec<OpenFact> {
    let raw: Vec<OpenFact> = docs.iter().flat_map(|d| extract_raw(d, cfg)).collect();
    apply_lexical_constraint(raw, cfg)
}

/// Applies the corpus-wide lexical constraint and frequency-aware
/// confidences to raw extractions (the reduce step).
pub(crate) fn apply_lexical_constraint(raw: Vec<OpenFact>, cfg: &OpenIeConfig) -> Vec<OpenFact> {
    // Lexical constraint: distinct arg pairs per normalized phrase.
    let mut pairs_per_phrase: HashMap<&str, HashSet<(&str, &str)>> = HashMap::new();
    for f in &raw {
        pairs_per_phrase
            .entry(f.relation.as_str())
            .or_default()
            .insert((f.arg1.as_str(), f.arg2.as_str()));
    }
    let phrase_freq: HashMap<String, usize> =
        pairs_per_phrase.iter().map(|(k, v)| (k.to_string(), v.len())).collect();
    let mut out: Vec<OpenFact> = raw
        .into_iter()
        .filter(|f| phrase_freq.get(&f.relation).copied().unwrap_or(0) >= cfg.min_distinct_pairs)
        .collect();
    for f in &mut out {
        f.confidence = confidence(f, phrase_freq[&f.relation]);
    }
    out.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (&a.arg1, &a.relation, &a.arg2).cmp(&(&b.arg1, &b.relation, &b.arg2)))
    });
    out
}

/// Extracts from one chunked sentence.
fn extract_from_chunks(
    tokens: &[Token],
    tags: &[PosTag],
    chunks: &[Chunk],
    doc_id: u32,
    cfg: &OpenIeConfig,
) -> Vec<OpenFact> {
    let mut out = Vec::new();
    for (ci, c) in chunks.iter().enumerate() {
        if c.kind != ChunkKind::Vp {
            continue;
        }
        // Relation phrase: VP tokens plus a following preposition.
        let mut rel_end = c.end;
        if rel_end < tags.len() && tags[rel_end] == PosTag::Preposition {
            rel_end += 1;
        }
        if rel_end - c.start > cfg.max_phrase_tokens {
            continue;
        }
        // arg1: nearest preceding NP with a non-pronoun head.
        let arg1 = chunks[..ci]
            .iter()
            .rev()
            .find(|x| x.kind == ChunkKind::Np && tags[x.head] != PosTag::Pronoun);
        // arg2: nearest NP starting at or after rel_end.
        let arg2 = chunks[ci + 1..].iter().find(|x| x.kind == ChunkKind::Np && x.start >= rel_end);
        let (Some(a1), Some(a2)) = (arg1, arg2) else { continue };
        // arg2 must be adjacent to the relation phrase (no stray tokens).
        if a2.start != rel_end {
            continue;
        }
        let surface: String =
            tokens[c.start..rel_end].iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ");
        let normalized = normalize_phrase(tokens, tags, c.start, rel_end);
        if normalized.is_empty() {
            continue;
        }
        out.push(OpenFact {
            arg1: np_surface(tokens, tags, a1),
            relation: normalized,
            relation_surface: surface,
            arg2: np_surface(tokens, tags, a2),
            confidence: 0.5,
            doc_id,
        });
    }
    out
}

/// NP surface with leading determiners stripped.
fn np_surface(tokens: &[Token], tags: &[PosTag], np: &Chunk) -> String {
    let mut start = np.start;
    while start < np.end && tags[start] == PosTag::Determiner {
        start += 1;
    }
    tokens[start..np.end].iter().map(|t| t.text.as_str()).collect::<Vec<_>>().join(" ")
}

/// Normalizes a relation phrase: lowercase, stem the main verb, keep
/// auxiliaries and the trailing preposition, drop adverbs.
fn normalize_phrase(tokens: &[Token], tags: &[PosTag], start: usize, end: usize) -> String {
    let mut words = Vec::new();
    for i in start..end {
        match tags[i] {
            PosTag::Adverb => continue,
            PosTag::Verb => words.push(stem(&tokens[i].lower())),
            _ => words.push(tokens[i].lower()),
        }
    }
    words.join(" ")
}

/// Frequency-aware confidence: base 0.4, +0.1 per distinct pair up to
/// +0.4, +0.1 when both arguments look like proper names, −0.1 for long
/// phrases.
fn confidence(f: &OpenFact, distinct_pairs: usize) -> f64 {
    let mut c = 0.4 + 0.1 * (distinct_pairs.min(4) as f64);
    let proper = |s: &str| s.chars().next().is_some_and(char::is_uppercase);
    if proper(&f.arg1) && proper(&f.arg2) {
        c += 0.1;
    }
    if f.relation.split(' ').count() > 3 {
        c -= 0.1;
    }
    c.clamp(0.05, 0.99)
}

/// Groups extractions into distinct relations with pair counts — the
/// "prototypic relation phrases" view (T4 reports its size).
pub fn relation_inventory(facts: &[OpenFact]) -> Vec<(String, usize)> {
    let mut pairs: HashMap<&str, HashSet<(&str, &str)>> = HashMap::new();
    for f in facts {
        pairs.entry(f.relation.as_str()).or_default().insert((f.arg1.as_str(), f.arg2.as_str()));
    }
    let mut out: Vec<(String, usize)> =
        pairs.into_iter().map(|(k, v)| (k.to_string(), v.len())).collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_corpus::doc::TextBuilder;
    use kb_corpus::DocKind;

    fn doc_from(text: &str) -> Doc {
        let mut b = TextBuilder::new();
        b.push(text);
        let (text, mentions) = b.finish();
        Doc {
            id: 1,
            kind: DocKind::Web,
            title: "t".into(),
            subject: None,
            text,
            mentions,
            infobox: vec![],
            categories: vec![],
        }
    }

    fn lax() -> OpenIeConfig {
        OpenIeConfig { min_distinct_pairs: 1, max_phrase_tokens: 5 }
    }

    #[test]
    fn extracts_simple_svo() {
        let d = doc_from("Jobs founded Apple.");
        let facts = extract_open(&[&d], &lax());
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].arg1, "Jobs");
        assert_eq!(facts[0].relation, "found"); // stemmed "founded"
        assert_eq!(facts[0].arg2, "Apple");
    }

    #[test]
    fn verb_plus_preposition_phrases() {
        let d = doc_from("Varen was born in Lundholm.");
        let facts = extract_open(&[&d], &lax());
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].relation, "was born in");
        assert_eq!(facts[0].relation_surface, "was born in");
        assert_eq!(facts[0].arg2, "Lundholm");
    }

    #[test]
    fn determiners_are_stripped_from_args() {
        let d = doc_from("The company released the Strato 3.");
        let facts = extract_open(&[&d], &lax());
        assert_eq!(facts.len(), 1);
        assert_eq!(facts[0].arg1, "company");
        assert_eq!(facts[0].arg2, "Strato 3");
    }

    #[test]
    fn pronoun_subjects_are_skipped_for_arg1() {
        // "He" is a pronoun; nearest non-pronoun NP to the left is absent.
        let d = doc_from("He founded Apple.");
        let facts = extract_open(&[&d], &lax());
        assert!(facts.is_empty());
    }

    #[test]
    fn adverbs_are_dropped_in_normalization() {
        let d1 = doc_from("Apple was originally based in Cupertino.");
        let d2 = doc_from("Nimbus was based in Lundholm.");
        let facts = extract_open(
            &[&d1, &d2],
            &OpenIeConfig { min_distinct_pairs: 2, max_phrase_tokens: 5 },
        );
        // Both normalize to the same phrase, satisfying the constraint.
        assert_eq!(facts.len(), 2);
        assert!(facts.iter().all(|f| f.relation == "was base in"));
    }

    #[test]
    fn lexical_constraint_prunes_one_off_phrases() {
        let d = doc_from("Jobs flurbicated Apple.");
        let strict = OpenIeConfig { min_distinct_pairs: 2, max_phrase_tokens: 5 };
        assert!(extract_open(&[&d], &strict).is_empty());
        assert_eq!(extract_open(&[&d], &lax()).len(), 1);
    }

    #[test]
    fn confidence_rises_with_distinct_pairs() {
        let docs: Vec<Doc> =
            (0..4).map(|i| doc_from(&format!("Alpha{i} employs Beta{i}."))).collect();
        let refs: Vec<&Doc> = docs.iter().collect();
        let many = extract_open(&refs, &lax());
        let single = extract_open(&refs[..1], &lax());
        assert!(many[0].confidence > single[0].confidence);
    }

    #[test]
    fn long_gap_between_phrase_and_arg2_is_rejected() {
        // "said that the market" — arg2 NP is not adjacent to the VP.
        let d = doc_from("Jobs said that maybe perhaps possibly the market grew.");
        let facts = extract_open(&[&d], &lax());
        assert!(facts.iter().all(|f| f.relation != "said that"));
    }

    #[test]
    fn relation_inventory_counts_distinct_pairs() {
        let d1 = doc_from("Alan works at Acme. Bea works at Zeta.");
        let facts = extract_open(&[&d1], &lax());
        let inv = relation_inventory(&facts);
        let works = inv.iter().find(|(r, _)| r == "work at").unwrap();
        assert_eq!(works.1, 2);
    }

    #[test]
    fn runs_on_generated_corpus() {
        use kb_corpus::{Corpus, CorpusConfig};
        let corpus = Corpus::generate(&CorpusConfig::tiny());
        let docs = corpus.all_docs();
        let facts = extract_open(&docs, &OpenIeConfig::default());
        assert!(!facts.is_empty(), "open IE should fire on the corpus");
        // Well-formed: non-empty args and relations.
        for f in &facts {
            assert!(!f.arg1.is_empty() && !f.arg2.is_empty() && !f.relation.is_empty());
            assert!((0.0..=1.0).contains(&f.confidence));
        }
    }
}
