//! T8 (commonsense mining) and T9 (multilingual label harvesting).

use kb_corpus::lexicon::CONCEPTS;
use kb_corpus::{Corpus, Doc};
use kb_harvest::commonsense::{mine_commonsense, property_precision_at_k, CommonsenseConfig};
use kb_harvest::multilingual::{harvest_labels, links_from_world, MultilingualConfig};
use kb_store::{KbBuilder, KbRead};

use crate::table::{f3, Table};

/// Gold check for a mined property.
fn property_gold(concept: &str, prop: &str) -> bool {
    CONCEPTS.iter().any(|c| c.name == concept && c.properties.contains(&prop))
}

/// Gold check for a mined part.
fn part_gold(part: &str, whole: &str) -> bool {
    CONCEPTS.iter().any(|c| c.name == whole && c.parts.contains(&part))
}

/// Renders T8.
pub fn t8(corpus: &Corpus) -> String {
    let docs: Vec<&Doc> = corpus.essays.iter().collect();
    let (props, parts) = mine_commonsense(&docs, &CommonsenseConfig::default());
    let mut t = Table::new(&["metric", "value"]);
    t.row(vec!["mined properties".into(), props.len().to_string()]);
    for k in [5usize, 10, 25] {
        t.row(vec![
            format!("property precision@{k}"),
            f3(property_precision_at_k(&props, k, property_gold)),
        ]);
    }
    let part_correct = parts.iter().filter(|p| part_gold(&p.part, &p.whole)).count();
    let gold_parts: usize = CONCEPTS.iter().map(|c| c.parts.len()).sum();
    t.row(vec!["mined parts".into(), parts.len().to_string()]);
    t.row(vec![
        "part precision".into(),
        f3(if parts.is_empty() { 0.0 } else { part_correct as f64 / parts.len() as f64 }),
    ]);
    t.row(vec!["part recall".into(), f3(part_correct as f64 / gold_parts as f64)]);
    format!("T8 — commonsense property and part-whole mining\n{}", t.render())
}

/// One T9 row.
#[derive(Debug, Clone)]
pub struct MultilingualRow {
    /// Filter on?
    pub filtered: bool,
    /// Labels accepted.
    pub accepted: usize,
    /// Accepted labels that match the uncorrupted gold.
    pub accuracy: f64,
    /// Coverage of gold links.
    pub coverage: f64,
}

/// Runs the multilingual harvest with noisy links, filtered vs not.
pub fn run_t9(corpus: &Corpus) -> Vec<MultilingualRow> {
    let world = &corpus.world;
    let noisy = links_from_world(world, 4);
    let gold: std::collections::HashSet<(String, String, String)> =
        links_from_world(world, 0).into_iter().map(|l| (l.entity, l.lang, l.label)).collect();
    [false, true]
        .into_iter()
        .map(|filtered| {
            let mut kb = KbBuilder::new();
            let stats = harvest_labels(&mut kb, &noisy, &MultilingualConfig::default(), filtered);
            let mut correct = 0usize;
            for (term, lang, label) in kb.labels.iter() {
                let entity = kb.resolve(term).unwrap_or_default().to_string();
                let lang = kb.labels.lang_tag(lang).unwrap_or_default().to_string();
                if gold.contains(&(entity, lang, label.to_string())) {
                    correct += 1;
                }
            }
            MultilingualRow {
                filtered,
                accepted: stats.accepted,
                accuracy: correct as f64 / stats.accepted.max(1) as f64,
                coverage: correct as f64 / gold.len().max(1) as f64,
            }
        })
        .collect()
}

/// Renders T9.
pub fn t9(corpus: &Corpus) -> String {
    let mut t = Table::new(&["consistency filter", "accepted", "accuracy", "gold coverage"]);
    for r in run_t9(corpus) {
        t.row(vec![
            if r.filtered { "on" } else { "off" }.to_string(),
            r.accepted.to_string(),
            f3(r.accuracy),
            f3(r.coverage),
        ]);
    }
    format!("T9 — multilingual label harvesting from noisy interlanguage links\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::small_corpus;

    #[test]
    fn t8_finds_high_precision_properties() {
        let corpus = small_corpus(42);
        let text = t8(&corpus);
        assert!(text.contains("precision@5"));
        // Extract and check the precision@5 line numerically.
        let docs: Vec<&Doc> = corpus.essays.iter().collect();
        let (props, _) = mine_commonsense(&docs, &CommonsenseConfig::default());
        assert!(property_precision_at_k(&props, 5, property_gold) >= 0.8);
    }

    #[test]
    fn t9_filter_trades_coverage_for_accuracy() {
        let corpus = small_corpus(42);
        let rows = run_t9(&corpus);
        let off = rows.iter().find(|r| !r.filtered).unwrap();
        let on = rows.iter().find(|r| r.filtered).unwrap();
        assert!(on.accuracy > off.accuracy, "filter must raise accuracy");
        assert!(on.accepted <= off.accepted);
        assert!(on.coverage > 0.5);
    }
}
