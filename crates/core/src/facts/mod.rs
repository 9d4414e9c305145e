//! Harvesting relational facts (tutorial §3): pattern occurrence
//! collection, distant-supervision pattern learning, candidate
//! extraction and statistical scoring.
//!
//! The flow mirrors the classic harvesting stack (KnowItAll → SOFIE →
//! DeepDive lineages):
//!
//! 1. [`patterns`] scans sentences for pairs of entity mentions and
//!    records the normalized token *infix* between them plus temporal
//!    hints ("in 1976", "from 1970 to 1985").
//! 2. [`distant`] labels occurrences with a *seed* fact set (distant
//!    supervision) and estimates per-(pattern, relation) precision.
//! 3. [`extract`] applies the learned pattern model to all occurrences,
//!    aggregating evidence per candidate fact (noisy-or).
//! 4. [`scoring`] refines candidates with harvested type information.
//!
//! [`infobox`] adds the semi-structured channel: DBpedia-style
//! harvesting from infobox key/value pairs under a declared mapping.
//!
//! The relation *schema* (names, domain/range kinds, functionality) is
//! declared domain knowledge, as in YAGO/SOFIE — see
//! [`RelationSpec`].

pub mod bootstrap;
pub mod distant;
pub mod extract;
pub mod generalize;
pub mod infobox;
pub mod patterns;
pub mod scoring;

/// Declared schema knowledge for one closed-IE relation: what the
/// harvester is told up front (not learned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSpec {
    /// Predicate name ("bornIn").
    pub name: &'static str,
    /// Required subject class ("person").
    pub domain: &'static str,
    /// Required object class ("city").
    pub range: &'static str,
    /// At most one object per subject.
    pub functional: bool,
    /// At most one subject per object.
    pub inverse_functional: bool,
}

/// The declared relation schema used throughout the harvesting
/// experiments. Mirrors the corpus' relation vocabulary — this is the
/// "pre-specified set of relations" of closed IE.
pub const RELATION_SCHEMA: &[RelationSpec] = &[
    RelationSpec {
        name: "bornIn",
        domain: "person",
        range: "city",
        functional: true,
        inverse_functional: false,
    },
    RelationSpec {
        name: "citizenOf",
        domain: "person",
        range: "country",
        functional: true,
        inverse_functional: false,
    },
    RelationSpec {
        name: "founded",
        domain: "person",
        range: "company",
        functional: false,
        inverse_functional: false,
    },
    RelationSpec {
        name: "worksAt",
        domain: "person",
        range: "company",
        functional: false,
        inverse_functional: false,
    },
    RelationSpec {
        name: "marriedTo",
        domain: "person",
        range: "person",
        functional: true,
        inverse_functional: true,
    },
    RelationSpec {
        name: "studiedAt",
        domain: "person",
        range: "university",
        functional: false,
        inverse_functional: false,
    },
    RelationSpec {
        name: "locatedIn",
        domain: "city",
        range: "country",
        functional: true,
        inverse_functional: false,
    },
    RelationSpec {
        name: "headquarteredIn",
        domain: "company",
        range: "city",
        functional: true,
        inverse_functional: false,
    },
    RelationSpec {
        name: "capitalOf",
        domain: "city",
        range: "country",
        functional: true,
        inverse_functional: true,
    },
    RelationSpec {
        name: "created",
        domain: "company",
        range: "product",
        functional: false,
        inverse_functional: true,
    },
];

/// Looks up a relation's spec by name.
pub(crate) fn relation_spec(name: &str) -> Option<&'static RelationSpec> {
    RELATION_SCHEMA.iter().find(|r| r.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_corpus_relations() {
        for rel in kb_corpus::world::ALL_RELS {
            let spec = relation_spec(rel.name()).expect("schema covers corpus relation");
            assert_eq!(spec.functional, rel.functional(), "{}", rel.name());
            assert_eq!(spec.inverse_functional, rel.inverse_functional(), "{}", rel.name());
            assert_eq!(spec.domain, rel.domain().class_name(), "{}", rel.name());
            assert_eq!(spec.range, rel.range().class_name(), "{}", rel.name());
        }
    }

    #[test]
    fn unknown_relations_have_no_spec() {
        assert!(relation_spec("flibbered").is_none());
    }
}
