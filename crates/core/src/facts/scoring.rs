//! Statistical refinement of candidate facts with harvested type
//! information.
//!
//! The extractor alone scores a candidate only by its patterns. This
//! stage adds the entity-typing signal the tutorial's "statistical
//! learning" methods exploit: a candidate whose subject or object type
//! (as harvested by the taxonomy stage) contradicts the relation's
//! declared signature is heavily penalized; type-confirmed candidates
//! get a mild boost.

use std::collections::{HashMap, HashSet};

use super::extract::CandidateFact;
use super::relation_spec;

/// Harvested typing: entity canonical name → classes (including
/// superclasses if the caller expanded them).
pub type TypeIndex = HashMap<String, HashSet<String>>;

/// Scoring parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScoreConfig {
    /// Multiplier when a type contradicts the signature.
    pub type_violation_penalty: f64,
    /// Multiplier (applied as `1 - (1-conf)*x`) when both types confirm.
    pub type_match_boost: f64,
    /// Multiplier when entity types are unknown (no evidence either way).
    pub unknown_type_factor: f64,
}

impl Default for ScoreConfig {
    fn default() -> Self {
        Self {
            type_violation_penalty: 0.1,
            type_match_boost: 0.5,
            // Absence of type evidence is not evidence against: leave
            // unknown-typed candidates untouched.
            unknown_type_factor: 1.0,
        }
    }
}

/// How a candidate's types relate to the relation signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeVerdict {
    /// Both argument types confirm the signature.
    Match,
    /// At least one argument has a known type that contradicts it.
    Violation,
    /// Types unknown for one or both arguments.
    Unknown,
}

/// The pairwise-disjoint top-level kind classes — declared domain
/// knowledge, like the relation signatures themselves (YAGO/SOFIE
/// declare exactly such disjointness constraints).
pub const DISJOINT_KINDS: [&str; 6] =
    ["person", "company", "city", "country", "university", "product"];

/// Checks a candidate against the declared relation signature using the
/// harvested type index.
///
/// An argument *violates* the signature only when its harvested classes
/// include a kind class that is declared disjoint with the required
/// one. Harvested classes that are not kind classes (occupations etc.)
/// carry no disjointness information, so their presence alone never
/// produces a violation — the harvested taxonomy is incomplete and
/// "not known to be a person" must not mean "not a person".
pub(crate) fn type_verdict(c: &CandidateFact, types: &TypeIndex) -> TypeVerdict {
    let Some(spec) = relation_spec(&c.relation) else {
        return TypeVerdict::Unknown;
    };
    let check = |entity: &str, required: &str| -> Option<bool> {
        let classes = types.get(entity)?;
        if classes.contains(required) {
            return Some(true);
        }
        let has_disjoint_kind =
            DISJOINT_KINDS.iter().any(|k| *k != required && classes.contains(*k));
        if has_disjoint_kind {
            Some(false)
        } else {
            None // no kind evidence either way
        }
    };
    let s = check(&c.subject, spec.domain);
    let o = check(&c.object, spec.range);
    match (s, o) {
        (Some(true), Some(true)) => TypeVerdict::Match,
        (Some(false), _) | (_, Some(false)) => TypeVerdict::Violation,
        _ => TypeVerdict::Unknown,
    }
}

/// Rescales candidate confidences in place according to their type
/// verdicts, then re-sorts by confidence.
pub(crate) fn apply_type_scoring(
    candidates: &mut [CandidateFact],
    types: &TypeIndex,
    cfg: &ScoreConfig,
) {
    for c in candidates.iter_mut() {
        match type_verdict(c, types) {
            TypeVerdict::Match => {
                c.confidence = 1.0 - (1.0 - c.confidence) * cfg.type_match_boost;
            }
            TypeVerdict::Violation => {
                c.confidence *= cfg.type_violation_penalty;
            }
            TypeVerdict::Unknown => {
                c.confidence *= cfg.unknown_type_factor;
            }
        }
    }
    candidates.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.key().cmp(&b.key()))
    });
}

/// Builds a [`TypeIndex`] from merged taxonomy instances, expanding each
/// entity's classes through the provided subclass edges so that an
/// `entrepreneur` also counts as a `person`.
pub fn build_type_index(
    instances: &[crate::taxonomy::induce::MergedInstance],
    subclass_edges: &[(String, String)],
) -> TypeIndex {
    // class -> superclasses (direct)
    let mut up: HashMap<&str, Vec<&str>> = HashMap::new();
    for (sub, sup) in subclass_edges {
        up.entry(sub.as_str()).or_default().push(sup.as_str());
    }
    let mut index: TypeIndex = HashMap::new();
    for inst in instances {
        let classes = index.entry(inst.entity.clone()).or_default();
        // BFS through superclasses.
        let mut queue = vec![inst.class.as_str()];
        while let Some(c) = queue.pop() {
            if classes.insert(c.to_string()) {
                if let Some(sups) = up.get(c) {
                    queue.extend(sups.iter().copied());
                }
            }
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::induce::MergedInstance;

    fn cand(s: &str, r: &str, o: &str, conf: f64) -> CandidateFact {
        CandidateFact {
            subject: s.into(),
            relation: r.into(),
            object: o.into(),
            confidence: conf,
            support: 1,
            docs: 1,
            patterns: 1,
            hints: vec![],
        }
    }

    fn types() -> TypeIndex {
        let mut t = TypeIndex::new();
        t.insert("Alan".into(), ["person"].iter().map(|s| s.to_string()).collect());
        t.insert("Lund".into(), ["city"].iter().map(|s| s.to_string()).collect());
        t.insert("AcmeCo".into(), ["company"].iter().map(|s| s.to_string()).collect());
        t
    }

    #[test]
    fn verdicts_cover_all_cases() {
        let t = types();
        assert_eq!(type_verdict(&cand("Alan", "bornIn", "Lund", 0.5), &t), TypeVerdict::Match);
        assert_eq!(
            type_verdict(&cand("AcmeCo", "bornIn", "Lund", 0.5), &t),
            TypeVerdict::Violation
        );
        assert_eq!(type_verdict(&cand("Mystery", "bornIn", "Lund", 0.5), &t), TypeVerdict::Unknown);
        assert_eq!(
            type_verdict(&cand("Alan", "unknownRel", "Lund", 0.5), &t),
            TypeVerdict::Unknown
        );
    }

    #[test]
    fn scoring_boosts_matches_and_punishes_violations() {
        let t = types();
        let mut cands = vec![
            cand("Alan", "bornIn", "Lund", 0.6),
            cand("AcmeCo", "bornIn", "Lund", 0.6),
            cand("Mystery", "bornIn", "Lund", 0.6),
        ];
        apply_type_scoring(&mut cands, &t, &ScoreConfig::default());
        let get = |s: &str| cands.iter().find(|c| c.subject == s).unwrap().confidence;
        assert!(get("Alan") > 0.6);
        assert!(get("AcmeCo") < 0.1);
        // Unknown types are left untouched by default.
        assert!((get("Mystery") - 0.6).abs() < 1e-12);
        // Sorted descending after rescoring.
        assert!(cands.windows(2).all(|w| w[0].confidence >= w[1].confidence));
    }

    #[test]
    fn type_index_expands_superclasses() {
        let instances = vec![MergedInstance {
            entity: "Alan".into(),
            class: "entrepreneur".into(),
            confidence: 1.0,
        }];
        let edges = vec![
            ("entrepreneur".to_string(), "person".to_string()),
            ("person".to_string(), "entity".to_string()),
        ];
        let index = build_type_index(&instances, &edges);
        let classes = &index["Alan"];
        assert!(classes.contains("entrepreneur"));
        assert!(classes.contains("person"));
        assert!(classes.contains("entity"));
    }

    #[test]
    fn type_index_handles_cycles_gracefully() {
        let instances =
            vec![MergedInstance { entity: "X".into(), class: "a".into(), confidence: 1.0 }];
        // Malformed (cyclic) edges must not hang.
        let edges = vec![("a".to_string(), "b".to_string()), ("b".to_string(), "a".to_string())];
        let index = build_type_index(&instances, &edges);
        assert!(index["X"].contains("a") && index["X"].contains("b"));
    }
}
