//! Set expansion (SEAL/KnowItAll style): grow a seed set of a class by
//! finding entities that co-occur with the seeds in enumeration
//! contexts ("Popular cities include A, B, C and D").

use std::collections::{HashMap, HashSet};

use kb_corpus::Doc;

/// An enumeration group: entities listed together in one document.
pub type EnumGroup = Vec<String>;

/// Extracts enumeration groups from a document: maximal runs of
/// mentions separated only by list glue (`", "`, `" and "`, `" or "`).
pub(crate) fn enumeration_groups<'a>(
    doc: &Doc,
    canonical_of: &impl Fn(kb_corpus::EntityId) -> &'a str,
) -> Vec<EnumGroup> {
    let mut groups = Vec::new();
    let mut current: EnumGroup = Vec::new();
    for window in doc.mentions.windows(2) {
        let (a, b) = (&window[0], &window[1]);
        let gap = &doc.text[a.end..b.start.min(doc.text.len()).max(a.end)];
        let is_glue = {
            let g = gap.trim();
            g == "," || g == "and" || g == "or" || g == ", and" || g == ", or"
        };
        if is_glue {
            if current.is_empty() {
                current.push(canonical_of(a.entity).to_string());
            }
            current.push(canonical_of(b.entity).to_string());
        } else if !current.is_empty() {
            groups.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        groups.push(current);
    }
    groups
}

/// A ranked expansion candidate.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpansionCandidate {
    /// Canonical entity name.
    pub entity: String,
    /// Number of enumeration groups shared with at least one seed.
    pub shared_lists: usize,
    /// Score in `[0, 1]`: shared lists over the candidate's total lists.
    pub score: f64,
}

/// Expands `seeds` using enumeration co-occurrence across `docs`.
/// Returns candidates (seeds excluded) ranked by shared-list count, then
/// score, then name.
pub fn expand_set<'a>(
    docs: &[&Doc],
    canonical_of: impl Fn(kb_corpus::EntityId) -> &'a str,
    seeds: &HashSet<String>,
) -> Vec<ExpansionCandidate> {
    let mut shared: HashMap<String, usize> = HashMap::new();
    let mut total: HashMap<String, usize> = HashMap::new();
    for doc in docs {
        for group in enumeration_groups(doc, &canonical_of) {
            let has_seed = group.iter().any(|e| seeds.contains(e));
            for e in &group {
                *total.entry(e.clone()).or_insert(0) += 1;
                if has_seed && !seeds.contains(e) {
                    *shared.entry(e.clone()).or_insert(0) += 1;
                }
            }
        }
    }
    let mut out: Vec<ExpansionCandidate> = shared
        .into_iter()
        .map(|(entity, shared_lists)| {
            let t = total[&entity].max(1);
            ExpansionCandidate { score: shared_lists as f64 / t as f64, entity, shared_lists }
        })
        .collect();
    out.sort_by(|a, b| {
        b.shared_lists
            .cmp(&a.shared_lists)
            .then(b.score.partial_cmp(&a.score).unwrap_or(std::cmp::Ordering::Equal))
            .then(a.entity.cmp(&b.entity))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_corpus::doc::TextBuilder;
    use kb_corpus::{DocKind, EntityId};

    fn list_doc(ids: &[&[u32]]) -> Doc {
        let mut b = TextBuilder::new();
        for group in ids {
            b.push("Popular things include ");
            for (i, &id) in group.iter().enumerate() {
                if i > 0 {
                    if i + 1 == group.len() {
                        b.push(" and ");
                    } else {
                        b.push(", ");
                    }
                }
                b.push_mention(&format!("E{id}"), EntityId(id));
            }
            b.push(". ");
        }
        let (text, mentions) = b.finish();
        Doc {
            id: 0,
            kind: DocKind::Overview,
            title: "lists".into(),
            subject: None,
            text,
            mentions,
            infobox: vec![],
            categories: vec![],
        }
    }

    fn name_of(id: EntityId) -> String {
        format!("E{}", id.0)
    }

    #[test]
    fn groups_split_on_non_glue_text() {
        let doc = list_doc(&[&[1, 2, 3], &[4, 5]]);
        let leak = name_of; // keep closure lifetime simple
        let groups = enumeration_groups(&doc, &|id| Box::leak(leak(id).into_boxed_str()) as &str);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec!["E1", "E2", "E3"]);
        assert_eq!(groups[1], vec!["E4", "E5"]);
    }

    #[test]
    fn expansion_finds_co_listed_entities() {
        let doc = list_doc(&[&[1, 2, 3], &[1, 4], &[5, 6]]);
        let seeds: HashSet<String> = ["E1".to_string()].into_iter().collect();
        let found =
            expand_set(&[&doc], |id| Box::leak(name_of(id).into_boxed_str()) as &str, &seeds);
        let names: Vec<&str> = found.iter().map(|c| c.entity.as_str()).collect();
        assert!(names.contains(&"E2"));
        assert!(names.contains(&"E4"));
        assert!(!names.contains(&"E5"), "E5 never co-occurs with the seed");
        assert!(!names.contains(&"E1"), "seeds are excluded");
    }

    #[test]
    fn candidates_are_ranked_by_shared_lists() {
        let doc = list_doc(&[&[1, 2], &[1, 2, 3], &[1, 3], &[2, 9]]);
        let seeds: HashSet<String> = ["E1".to_string()].into_iter().collect();
        let found =
            expand_set(&[&doc], |id| Box::leak(name_of(id).into_boxed_str()) as &str, &seeds);
        // E2 and E3 both share 2 lists with the seed; E3 wins the tie on
        // score (2/2 vs 2/3 of its lists shared).
        assert_eq!(found[0].entity, "E3");
        assert_eq!(found[0].shared_lists, 2);
        assert!((found[0].score - 1.0).abs() < 1e-12);
        let e2 = found.iter().find(|c| c.entity == "E2").unwrap();
        assert!((e2.score - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn expansion_on_generated_overviews_recovers_class_members() {
        use kb_corpus::{Corpus, CorpusConfig, EntityKind};
        let corpus = Corpus::generate(&CorpusConfig::tiny());
        let world = &corpus.world;
        let docs: Vec<&Doc> = corpus.overviews.iter().collect();
        // Seed with two cities; expansion should surface mostly cities.
        let mut cities = world.of_kind(EntityKind::City);
        let seeds: HashSet<String> = cities.by_ref().take(2).map(|e| e.canonical.clone()).collect();
        let found = expand_set(&docs, |id| world.entity(id).canonical.as_str(), &seeds);
        if found.is_empty() {
            // Tiny corpora may not co-list the seeds; acceptable.
            return;
        }
        let top: Vec<_> = found.iter().take(5).collect();
        let city_hits = top
            .iter()
            .filter(|c| world.by_canonical(&c.entity).is_some_and(|e| e.kind == EntityKind::City))
            .count();
        assert!(city_hits * 2 >= top.len(), "top-5 should be mostly cities");
    }
}
