//! Multilingual knowledge harvesting (tutorial §3): collecting entity
//! labels in multiple languages from interlanguage links, with a
//! transliteration-consistency filter that rejects corrupted links.
//!
//! Real interlanguage links are noisy (bot edits, vandalism, drift);
//! the filter checks that a foreign label is *string-consistent* with
//! the English one — sharing a long common core after stripping
//! language-specific affixes — before accepting it, mirroring the
//! name-consistency checks used when fusing multilingual sources.

use kb_nlp::similarity::jaro_winkler;
use kb_store::KbBuilder;

/// One interlanguage link: an entity's purported label in a language.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LangLink {
    /// Canonical entity name.
    pub entity: String,
    /// Language tag ("de", "fr", ...).
    pub lang: String,
    /// The label in that language.
    pub label: String,
    /// The trusted English label to check against.
    pub english: String,
}

/// Filter parameters.
#[derive(Debug, Clone, Copy)]
pub struct MultilingualConfig {
    /// Minimum Jaro-Winkler similarity between the affix-stripped
    /// foreign label and the English label.
    pub min_consistency: f64,
}

impl Default for MultilingualConfig {
    fn default() -> Self {
        Self { min_consistency: 0.75 }
    }
}

/// Strips known language-specific affixes before comparison
/// (the corpus' pseudo-translations add "haus"/"Le "; real systems use
/// per-language transliteration tables here).
fn strip_affixes(label: &str, lang: &str) -> String {
    match lang {
        "de" => label.strip_suffix("haus").unwrap_or(label).to_string(),
        "fr" => label.strip_prefix("Le ").unwrap_or(label).to_string(),
        _ => label.to_string(),
    }
}

/// Whether a link passes the consistency filter.
pub(crate) fn is_consistent(link: &LangLink, cfg: &MultilingualConfig) -> bool {
    let stripped = strip_affixes(&link.label, &link.lang);
    jaro_winkler(&stripped.to_lowercase(), &link.english.to_lowercase()) >= cfg.min_consistency
}

/// Harvest outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MultilingualStats {
    /// Links examined.
    pub examined: usize,
    /// Links accepted into the KB.
    pub accepted: usize,
    /// Links rejected by the consistency filter.
    pub rejected: usize,
}

/// Harvests consistent labels into the KB's label store. When
/// `filter` is false every link is accepted (the unfiltered baseline of
/// experiment T9).
pub fn harvest_labels(
    kb: &mut KbBuilder,
    links: &[LangLink],
    cfg: &MultilingualConfig,
    filter: bool,
) -> MultilingualStats {
    let mut stats = MultilingualStats::default();
    for link in links {
        stats.examined += 1;
        if filter && !is_consistent(link, cfg) {
            stats.rejected += 1;
            continue;
        }
        let term = kb.intern(&link.entity);
        let lang = kb.labels.lang(&link.lang);
        kb.labels.add(term, lang, &link.label);
        stats.accepted += 1;
    }
    stats
}

/// Builds the link set from a corpus world, optionally corrupting a
/// fraction of links deterministically (every `1/noise`-th link gets a
/// shuffled label from another entity) — the noisy input for T9.
pub fn links_from_world(world: &kb_corpus::World, corrupt_every: usize) -> Vec<LangLink> {
    let mut links = Vec::new();
    let n = world.entities.len();
    for (i, e) in world.entities.iter().enumerate() {
        for (lang, label) in &e.labels {
            if *lang == "en" {
                continue;
            }
            let corrupted = corrupt_every > 0 && i % corrupt_every == 0;
            let label = if corrupted {
                // Take another entity's label in the same language.
                let other = &world.entities[(i + n / 2) % n];
                other
                    .labels
                    .iter()
                    .find(|(l, _)| l == lang)
                    .map(|(_, s)| s.clone())
                    .unwrap_or_else(|| label.clone())
            } else {
                label.clone()
            };
            links.push(LangLink {
                entity: e.canonical.clone(),
                lang: (*lang).to_string(),
                label,
                english: e.display.clone(),
            });
        }
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbRead;

    fn link(entity: &str, lang: &str, label: &str, english: &str) -> LangLink {
        LangLink {
            entity: entity.into(),
            lang: lang.into(),
            label: label.into(),
            english: english.into(),
        }
    }

    #[test]
    fn consistent_links_pass() {
        let cfg = MultilingualConfig::default();
        assert!(is_consistent(&link("Lundholm", "de", "Lundholmhaus", "Lundholm"), &cfg));
        assert!(is_consistent(&link("Lundholm", "fr", "Le Lundholm", "Lundholm"), &cfg));
    }

    #[test]
    fn corrupted_links_fail() {
        let cfg = MultilingualConfig::default();
        assert!(!is_consistent(&link("Lundholm", "de", "Torberghaus", "Lundholm"), &cfg));
        assert!(!is_consistent(&link("Lundholm", "fr", "Le Quellstad", "Lundholm"), &cfg));
    }

    #[test]
    fn harvest_with_filter_rejects_noise() {
        let mut kb = KbBuilder::new();
        let links = vec![
            link("Lundholm", "de", "Lundholmhaus", "Lundholm"),
            link("Lundholm", "de", "Wrongville", "Lundholm"),
        ];
        let stats = harvest_labels(&mut kb, &links, &MultilingualConfig::default(), true);
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.rejected, 1);
        assert_eq!(kb.labels.label_count(), 1);
    }

    #[test]
    fn harvest_without_filter_accepts_everything() {
        let mut kb = KbBuilder::new();
        let links = vec![
            link("Lundholm", "de", "Lundholmhaus", "Lundholm"),
            link("Lundholm", "de", "Wrongville", "Lundholm"),
        ];
        let stats = harvest_labels(&mut kb, &links, &MultilingualConfig::default(), false);
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn world_links_cover_non_english_languages() {
        use kb_corpus::{CorpusConfig, World};
        let world = World::generate(&CorpusConfig::tiny().world);
        let links = links_from_world(&world, 0);
        assert!(!links.is_empty());
        assert!(links.iter().all(|l| l.lang != "en"));
        // Two foreign languages per entity.
        assert_eq!(links.len(), world.entities.len() * 2);
    }

    #[test]
    fn corruption_knob_corrupts_a_fraction() {
        use kb_corpus::{CorpusConfig, World};
        let world = World::generate(&CorpusConfig::tiny().world);
        let clean = links_from_world(&world, 0);
        let noisy = links_from_world(&world, 4);
        let differing = clean.iter().zip(&noisy).filter(|(a, b)| a.label != b.label).count();
        assert!(differing > 0);
        assert!(differing < clean.len() / 2);
    }

    #[test]
    fn filter_improves_accuracy_on_noisy_world_links() {
        use kb_corpus::{CorpusConfig, World};
        let world = World::generate(&CorpusConfig::tiny().world);
        let noisy = links_from_world(&world, 3);
        let gold: std::collections::HashSet<(String, String, String)> =
            links_from_world(&world, 0).into_iter().map(|l| (l.entity, l.lang, l.label)).collect();
        let accuracy = |filtered: bool| {
            let mut kb = KbBuilder::new();
            harvest_labels(&mut kb, &noisy, &MultilingualConfig::default(), filtered);
            let mut correct = 0usize;
            let mut total = 0usize;
            for (term, lang, label) in kb.labels.iter() {
                total += 1;
                let entity = kb.resolve(term).unwrap().to_string();
                let lang = kb.labels.lang_tag(lang).unwrap().to_string();
                if gold.contains(&(entity, lang, label.to_string())) {
                    correct += 1;
                }
            }
            correct as f64 / total.max(1) as f64
        };
        assert!(accuracy(true) > accuracy(false), "filter must improve label accuracy");
    }
}
