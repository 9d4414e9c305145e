//! Harvesting entities and classes (tutorial §2): three method families
//! plus merge/induction utilities.
//!
//! * [`category`] — Wikipedia-style category-string analysis: parse the
//!   head noun, keep class categories ("Valdorian entrepreneurs" →
//!   `entrepreneur`), reject relational ones ("People born in X").
//! * [`hearst`] — Hearst patterns over free text: "CLASSES such as A, B
//!   and C" / "A and other CLASSES".
//! * [`setexp`] — set expansion: grow a seed set of a class via shared
//!   enumeration contexts.
//! * [`induce`] — merge class evidence and induce subclass edges by
//!   instance-set subsumption.

pub mod category;
pub mod hearst;
pub mod induce;
pub mod setexp;

use std::collections::HashSet;

/// A harvested `instanceOf` assertion keyed by canonical entity name and
/// class name, with the method that produced it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InstanceAssertion {
    /// Canonical entity name.
    pub entity: String,
    /// Class name (normalized singular, lowercase, underscored).
    pub class: String,
}

/// Converts a set of assertions to the `(entity, class)` string pairs
/// used by the evaluation.
pub fn to_eval_set(assertions: &[InstanceAssertion]) -> HashSet<(String, String)> {
    assertions.iter().map(|a| (a.entity.clone(), a.class.clone())).collect()
}

/// Normalizes a plural class head to the singular class identifier used
/// by the gold taxonomy: lowercase, `people → person`,
/// `-ies → -y`, trailing `-s` stripped, spaces → underscores.
pub(crate) fn singularize_class(plural: &str) -> String {
    let lower = plural.to_lowercase().replace(' ', "_");
    if lower == "people" || lower == "persons" {
        return "person".to_string();
    }
    if let Some(stem) = lower.strip_suffix("ies") {
        return format!("{stem}y");
    }
    if let Some(stem) = lower.strip_suffix('s') {
        if !stem.is_empty() {
            return stem.to_string();
        }
    }
    lower
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singularize_covers_gold_classes() {
        assert_eq!(singularize_class("people"), "person");
        assert_eq!(singularize_class("cities"), "city");
        assert_eq!(singularize_class("companies"), "company");
        assert_eq!(singularize_class("entrepreneurs"), "entrepreneur");
        assert_eq!(singularize_class("universities"), "university");
        assert_eq!(singularize_class("phones"), "phone");
        assert_eq!(singularize_class("Phone companies"), "phone_company");
    }

    #[test]
    fn singularize_is_safe_on_degenerate_input() {
        assert_eq!(singularize_class("s"), "s");
        assert_eq!(singularize_class(""), "");
    }

    #[test]
    fn eval_set_deduplicates() {
        let a = InstanceAssertion { entity: "E".into(), class: "c".into() };
        let set = to_eval_set(&[a.clone(), a]);
        assert_eq!(set.len(), 1);
    }
}
