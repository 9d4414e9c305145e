//! Category-string analysis (WikiTaxonomy / YAGO style).
//!
//! Wikipedia's category system mixes *class* categories ("American
//! entrepreneurs") with *relational* categories ("People born in
//! Lundholm"). The classic heuristic (Ponzetto & Strube 2007; Suchanek
//! et al. 2007): take the plural head noun of the category name as a
//! class candidate, but only when the category is a genuine class
//! category — relational ones are recognized by prepositional phrases
//! after the head ("born in", "headquartered in", "in `<Place>`").

use kb_corpus::Doc;

use super::{singularize_class, InstanceAssertion};

/// A parsed category string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsedCategory {
    /// A class category: the entity is an instance of `class`; if a
    /// modifier formed a compound, `parent` holds the bare head class.
    Class {
        /// Normalized class name ("entrepreneur", "phone_company").
        class: String,
        /// The bare head class when `class` is a compound
        /// ("phone_company" → "company").
        parent: Option<String>,
    },
    /// A relational category ("People born in X"). Its *head noun*
    /// still types the instance (a member of "People born in X" is a
    /// person) — the WikiTaxonomy refinement that recovers the coarse
    /// kind classes.
    Relational {
        /// The head class, when the head noun precedes the preposition
        /// ("people", "companies", "cities").
        head: Option<String>,
    },
}

/// Nationality-adjective suffixes produced by the corpus generator; such
/// modifiers describe the instance, not a subclass ("Valdorian
/// entrepreneurs" are entrepreneurs, not a class `valdorian_entrepreneur`).
const NATIONALITY_SUFFIXES: [&str; 3] = ["ian", "landic", "ese"];

fn is_nationality_adjective(word: &str) -> bool {
    word.chars().next().is_some_and(|c| c.is_uppercase())
        && NATIONALITY_SUFFIXES.iter().any(|s| word.ends_with(s))
}

/// Parses one category string.
pub(crate) fn parse_category(cat: &str) -> ParsedCategory {
    let tokens: Vec<&str> = cat.split_whitespace().collect();
    if tokens.is_empty() {
        return ParsedCategory::Relational { head: None };
    }
    // Relational: any preposition after the head ("People born in X",
    // "Companies headquartered in X", "Cities in X"). The head noun is
    // the token before the first verb/preposition — it still types the
    // instance.
    if let Some(pos) = tokens.iter().position(|t| {
        matches!(*t, "in" | "of" | "by" | "from" | "born" | "headquartered" | "located")
    }) {
        let head = if pos >= 1 { Some(singularize_class(tokens[pos - 1])) } else { None };
        return ParsedCategory::Relational { head };
    }
    match tokens.len() {
        1 => ParsedCategory::Class { class: singularize_class(tokens[0]), parent: None },
        2 => {
            let (modifier, head) = (tokens[0], tokens[1]);
            let head_class = singularize_class(head);
            if is_nationality_adjective(modifier) {
                // Nationality modifiers don't create subclasses.
                ParsedCategory::Class { class: head_class, parent: None }
            } else {
                let compound = format!("{}_{head_class}", modifier.to_lowercase());
                ParsedCategory::Class { class: compound, parent: Some(head_class) }
            }
        }
        // Longer prepositional-free categories are rare and ambiguous;
        // treat them as relational without a usable head.
        _ => ParsedCategory::Relational { head: None },
    }
}

/// Output of category harvesting over a document collection.
#[derive(Debug, Default, Clone)]
pub struct CategoryHarvest {
    /// Harvested instanceOf assertions.
    pub instances: Vec<InstanceAssertion>,
    /// Subclass edges induced from compound categories
    /// ("phone_company" ⊂ "company").
    pub subclass_edges: Vec<(String, String)>,
}

/// Harvests instanceOf assertions and compound-class subclass edges from
/// the categories of entity articles. The article's subject is the
/// instance; its canonical name comes through the `canonical_of`
/// resolver so the harvester stays decoupled from the corpus' entity
/// table.
pub fn harvest_categories<'a>(
    docs: &[&Doc],
    canonical_of: impl Fn(kb_corpus::EntityId) -> &'a str,
) -> CategoryHarvest {
    let mut out = CategoryHarvest::default();
    for doc in docs {
        let Some(subject) = doc.subject else { continue };
        let entity = canonical_of(subject).to_string();
        for cat in &doc.categories {
            match parse_category(cat) {
                ParsedCategory::Class { class, parent } => {
                    out.instances
                        .push(InstanceAssertion { entity: entity.clone(), class: class.clone() });
                    if let Some(parent) = parent {
                        let edge = (class, parent);
                        if !out.subclass_edges.contains(&edge) {
                            out.subclass_edges.push(edge);
                        }
                    }
                }
                ParsedCategory::Relational { head: Some(head) } => {
                    out.instances.push(InstanceAssertion { entity: entity.clone(), class: head });
                }
                ParsedCategory::Relational { head: None } => {}
            }
        }
    }
    out.instances.sort_by(|a, b| (&a.entity, &a.class).cmp(&(&b.entity, &b.class)));
    out.instances.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_categories_parse_to_classes() {
        assert_eq!(
            parse_category("Entrepreneurs"),
            ParsedCategory::Class { class: "entrepreneur".into(), parent: None }
        );
        assert_eq!(
            parse_category("Countries"),
            ParsedCategory::Class { class: "country".into(), parent: None }
        );
    }

    #[test]
    fn nationality_modifiers_are_dropped() {
        assert_eq!(
            parse_category("Valdorian entrepreneurs"),
            ParsedCategory::Class { class: "entrepreneur".into(), parent: None }
        );
        assert_eq!(
            parse_category("Norlandic scientists"),
            ParsedCategory::Class { class: "scientist".into(), parent: None }
        );
    }

    #[test]
    fn compound_categories_create_subclasses() {
        assert_eq!(
            parse_category("Phone companies"),
            ParsedCategory::Class { class: "phone_company".into(), parent: Some("company".into()) }
        );
    }

    #[test]
    fn relational_categories_keep_only_their_head_class() {
        assert_eq!(
            parse_category("People born in Lundholm"),
            ParsedCategory::Relational { head: Some("person".into()) }
        );
        assert_eq!(
            parse_category("Companies headquartered in Torberg"),
            ParsedCategory::Relational { head: Some("company".into()) }
        );
        assert_eq!(
            parse_category("Cities in Norland"),
            ParsedCategory::Relational { head: Some("city".into()) }
        );
        assert_eq!(parse_category(""), ParsedCategory::Relational { head: None });
    }

    #[test]
    fn harvest_over_generated_corpus_is_high_precision() {
        use kb_corpus::{gold, Corpus, CorpusConfig};
        let corpus = Corpus::generate(&CorpusConfig::tiny());
        let world = &corpus.world;
        let docs: Vec<&Doc> = corpus.articles.iter().collect();
        let harvest = harvest_categories(&docs, |id| world.entity(id).canonical.as_str());
        assert!(!harvest.instances.is_empty());
        let predicted = super::super::to_eval_set(&harvest.instances);
        let gold_set = gold::gold_instance_strings(world);
        let m = gold::pr_f1(&predicted, &gold_set);
        assert!(m.precision > 0.95, "precision {}", m.precision);
        assert!(m.recall > 0.3, "recall {}", m.recall);
    }

    #[test]
    fn compound_edges_match_gold_taxonomy() {
        use kb_corpus::{Corpus, CorpusConfig};
        let corpus = Corpus::generate(&CorpusConfig::tiny());
        let world = &corpus.world;
        let docs: Vec<&Doc> = corpus.articles.iter().collect();
        let harvest = harvest_categories(&docs, |id| world.entity(id).canonical.as_str());
        for (sub, sup) in &harvest.subclass_edges {
            assert!(
                world.taxonomy_edges.contains(&(sub.clone(), sup.clone())),
                "induced edge {sub} ⊂ {sup} not in gold"
            );
        }
    }
}
