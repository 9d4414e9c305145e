//! Integration: harvested KB + NED over gold-annotated articles.

use kbkit::kb_corpus::{Corpus, CorpusConfig};
use kbkit::kb_harvest::pipeline::{harvest, HarvestConfig};
use kbkit::kb_ned::eval::GoldDoc;
use kbkit::kb_ned::{detect_mentions, evaluate, Ned, Strategy};
use kbkit::kb_store::{KbBuilder, KbRead};

fn setup() -> (Corpus, kbkit::kb_harvest::pipeline::HarvestOutput) {
    let corpus = Corpus::generate(&CorpusConfig::tiny());
    let out = harvest(&corpus, &HarvestConfig::default()).expect("harvest");
    (corpus, out)
}

fn build_ned<'kb>(corpus: &Corpus, kb: &'kb KbBuilder) -> Ned<'kb, KbBuilder> {
    let mut ned = Ned::new(kb);
    for doc in corpus.all_docs() {
        for m in &doc.mentions {
            if let Some(term) = kb.term(&corpus.world.entity(m.entity).canonical) {
                ned.add_anchor(&m.surface, term);
            }
        }
    }
    ned.finalize();
    ned
}

fn gold_docs<'a>(corpus: &'a Corpus, kb: &kbkit::kb_store::KbBuilder) -> Vec<GoldDoc<'a>> {
    corpus
        .articles
        .iter()
        .map(|d| GoldDoc {
            text: &d.text,
            mentions: d
                .mentions
                .iter()
                .filter_map(|m| {
                    kb.term(&corpus.world.entity(m.entity).canonical).map(|t| (m.start, m.end, t))
                })
                .collect(),
        })
        .filter(|g| !g.mentions.is_empty())
        .collect()
}

#[test]
fn strategy_ladder_holds_on_articles() {
    let (corpus, out) = setup();
    let ned = build_ned(&corpus, &out.kb);
    let docs = gold_docs(&corpus, &out.kb);
    let prior = evaluate(&ned, &docs, Strategy::Prior);
    let context = evaluate(&ned, &docs, Strategy::Context);
    let coherence = evaluate(&ned, &docs, Strategy::Coherence);
    assert!(prior.total > 100, "need substance: {} mentions", prior.total);
    assert!(context.accuracy() >= prior.accuracy() - 1e-9);
    assert!(coherence.ambiguous_accuracy() >= prior.ambiguous_accuracy());
    assert!(coherence.accuracy() > 0.9, "coherence accuracy {}", coherence.accuracy());
}

#[test]
fn mention_detection_recovers_most_gold_spans() {
    let (corpus, out) = setup();
    let kb = &out.kb;
    let mut found = 0usize;
    let mut total = 0usize;
    for doc in &corpus.articles {
        let detected = detect_mentions(kb, &doc.text);
        for gold in &doc.mentions {
            total += 1;
            if detected.iter().any(|d| d.start == gold.start && d.end == gold.end) {
                found += 1;
            }
        }
    }
    assert!(total > 0);
    let recall = found as f64 / total as f64;
    assert!(recall > 0.8, "mention detection recall {recall}");
}

#[test]
fn detected_mentions_never_overlap_and_slice_cleanly() {
    let (corpus, out) = setup();
    let kb = &out.kb;
    for doc in corpus.all_docs().into_iter().take(50) {
        let detected = detect_mentions(kb, &doc.text);
        let mut last_end = 0usize;
        for m in &detected {
            assert!(m.start >= last_end, "overlap in {}", doc.title);
            assert_eq!(&doc.text[m.start..m.end], m.surface);
            last_end = m.end;
        }
    }
}

#[test]
fn unambiguous_full_names_resolve_perfectly() {
    let (corpus, out) = setup();
    let ned = build_ned(&corpus, &out.kb);
    let mut checked = 0usize;
    for doc in gold_docs(&corpus, &out.kb).iter().take(30) {
        let spans: Vec<(usize, usize)> = doc.mentions.iter().map(|&(s, e, _)| (s, e)).collect();
        let resolved = ned.disambiguate(doc.text, &spans, Strategy::Prior);
        for ((start, end, gold), got) in doc.mentions.iter().zip(resolved) {
            let surface = &doc.text[*start..*end];
            if ned.ambiguity(surface) == 1 {
                assert_eq!(got, Some(*gold), "unambiguous {surface:?} misresolved");
                checked += 1;
            }
        }
    }
    assert!(checked > 20, "too few unambiguous mentions exercised");
}
