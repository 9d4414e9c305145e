//! Merging class evidence and inducing subclass edges.
//!
//! Instance assertions from the three harvesters (categories, Hearst,
//! set expansion) are merged with per-method confidence weights; then
//! subclass edges are induced by *instance-set subsumption*: class A is
//! proposed as a subclass of class B when nearly all of A's instances
//! are also instances of B and A is strictly smaller.

use std::collections::{HashMap, HashSet};

use kb_store::{KbBuilder, StoreError};

use super::InstanceAssertion;

/// A merged instance assertion with combined confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedInstance {
    /// Canonical entity name.
    pub entity: String,
    /// Class name.
    pub class: String,
    /// Combined confidence (noisy-or over method confidences).
    pub confidence: f64,
}

/// Merges assertion lists with per-list confidences. Duplicate
/// `(entity, class)` pairs combine by noisy-or.
pub fn merge_instances(sources: &[(&[InstanceAssertion], f64)]) -> Vec<MergedInstance> {
    let mut merged: HashMap<(String, String), f64> = HashMap::new();
    for (assertions, conf) in sources {
        // Within one source, a pair counts once.
        let distinct: HashSet<(&str, &str)> =
            assertions.iter().map(|a| (a.entity.as_str(), a.class.as_str())).collect();
        for (e, c) in distinct {
            let slot = merged.entry((e.to_string(), c.to_string())).or_insert(0.0);
            *slot = 1.0 - (1.0 - *slot) * (1.0 - conf);
        }
    }
    let mut out: Vec<MergedInstance> = merged
        .into_iter()
        .map(|((entity, class), confidence)| MergedInstance { entity, class, confidence })
        .collect();
    out.sort_by(|a, b| (&a.entity, &a.class).cmp(&(&b.entity, &b.class)));
    out
}

/// Induces subclass edges by instance-set subsumption.
///
/// `A ⊂ B` is proposed when `|inst(A) ∩ inst(B)| / |inst(A)| ≥
/// min_containment`, `|inst(A)| ≥ min_instances`, and `|inst(A)| <
/// |inst(B)|`. Only the most specific containing classes are kept (no
/// shortcut edges to grandparents that a chain already implies).
pub(crate) fn induce_subclasses(
    instances: &[MergedInstance],
    min_containment: f64,
    min_instances: usize,
) -> Vec<(String, String)> {
    let mut members: HashMap<&str, HashSet<&str>> = HashMap::new();
    for i in instances {
        members.entry(i.class.as_str()).or_default().insert(i.entity.as_str());
    }
    let classes: Vec<&str> = {
        let mut v: Vec<&str> = members.keys().copied().collect();
        v.sort_unstable();
        v
    };
    let mut raw: Vec<(String, String)> = Vec::new();
    for &a in &classes {
        let ia = &members[a];
        if ia.len() < min_instances {
            continue;
        }
        for &b in &classes {
            if a == b {
                continue;
            }
            let ib = &members[b];
            if ia.len() >= ib.len() {
                continue;
            }
            let inter = ia.intersection(ib).count();
            if inter as f64 / ia.len() as f64 >= min_containment {
                raw.push((a.to_string(), b.to_string()));
            }
        }
    }
    // Transitive reduction: drop (a, c) when some (a, b) and (b, c) exist.
    let set: HashSet<(String, String)> = raw.iter().cloned().collect();
    raw.retain(|(a, c)| {
        !set.iter().any(|(x, b)| x == a && b != c && set.contains(&(b.clone(), c.clone())))
    });
    raw.sort();
    raw
}

/// Loads merged instances and subclass edges into a knowledge base:
/// `instanceOf` facts with their confidences, plus taxonomy edges.
/// Cycle-rejected edges are skipped (returned count reflects applied
/// edges).
pub(crate) fn load_into_kb(
    kb: &mut KbBuilder,
    instances: &[MergedInstance],
    subclass_edges: &[(String, String)],
    source: &str,
) -> Result<usize, StoreError> {
    let src = kb.register_source(source);
    let instance_of = kb.intern("instanceOf");
    for i in instances {
        let e = kb.intern(&i.entity);
        let c = kb.intern(&i.class);
        kb.taxonomy.add_class(c);
        kb.add_fact(kb_store::Fact {
            triple: kb_store::Triple::new(e, instance_of, c),
            confidence: i.confidence,
            source: src,
            span: None,
        });
    }
    let mut applied = 0;
    for (sub, sup) in subclass_edges {
        let s = kb.intern(sub);
        let p = kb.intern(sup);
        match kb.taxonomy.add_subclass(s, p) {
            Ok(true) => applied += 1,
            Ok(false) => {}
            Err(StoreError::TaxonomyCycle { .. }) => {} // induced noise; skip
            Err(e) => return Err(e),
        }
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbRead;

    fn ia(e: &str, c: &str) -> InstanceAssertion {
        InstanceAssertion { entity: e.into(), class: c.into() }
    }

    #[test]
    fn merge_combines_by_noisy_or() {
        let a = [ia("E", "c")];
        let b = [ia("E", "c"), ia("F", "c")];
        let merged = merge_instances(&[(&a, 0.5), (&b, 0.5)]);
        let e = merged.iter().find(|m| m.entity == "E").unwrap();
        assert!((e.confidence - 0.75).abs() < 1e-12);
        let f = merged.iter().find(|m| m.entity == "F").unwrap();
        assert!((f.confidence - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duplicates_within_one_source_count_once() {
        let a = [ia("E", "c"), ia("E", "c")];
        let merged = merge_instances(&[(&a, 0.6)]);
        assert_eq!(merged.len(), 1);
        assert!((merged[0].confidence - 0.6).abs() < 1e-12);
    }

    #[test]
    fn subsumption_induces_the_right_direction() {
        // entrepreneurs {A, B} ⊂ people {A, B, C, D}
        let mut inst = Vec::new();
        for e in ["A", "B"] {
            inst.push(MergedInstance {
                entity: e.into(),
                class: "entrepreneur".into(),
                confidence: 1.0,
            });
        }
        for e in ["A", "B", "C", "D"] {
            inst.push(MergedInstance { entity: e.into(), class: "person".into(), confidence: 1.0 });
        }
        let edges = induce_subclasses(&inst, 0.9, 2);
        assert_eq!(edges, vec![("entrepreneur".to_string(), "person".to_string())]);
    }

    #[test]
    fn partial_overlap_below_threshold_is_rejected() {
        let mut inst = Vec::new();
        for e in ["A", "B", "X"] {
            inst.push(MergedInstance { entity: e.into(), class: "small".into(), confidence: 1.0 });
        }
        for e in ["A", "B", "C", "D"] {
            inst.push(MergedInstance { entity: e.into(), class: "big".into(), confidence: 1.0 });
        }
        // containment 2/3 < 0.9
        assert!(induce_subclasses(&inst, 0.9, 2).is_empty());
        // but a lax threshold accepts it
        assert_eq!(induce_subclasses(&inst, 0.6, 2).len(), 1);
    }

    #[test]
    fn transitive_reduction_drops_shortcuts() {
        // a ⊂ b ⊂ c with full containment; (a, c) must be reduced away.
        let mut inst = Vec::new();
        for e in ["1", "2"] {
            inst.push(MergedInstance { entity: e.into(), class: "a".into(), confidence: 1.0 });
        }
        for e in ["1", "2", "3"] {
            inst.push(MergedInstance { entity: e.into(), class: "b".into(), confidence: 1.0 });
        }
        for e in ["1", "2", "3", "4"] {
            inst.push(MergedInstance { entity: e.into(), class: "c".into(), confidence: 1.0 });
        }
        let edges = induce_subclasses(&inst, 0.9, 2);
        assert!(edges.contains(&("a".to_string(), "b".to_string())));
        assert!(edges.contains(&("b".to_string(), "c".to_string())));
        assert!(!edges.contains(&("a".to_string(), "c".to_string())), "shortcut kept: {edges:?}");
    }

    #[test]
    fn load_into_kb_populates_taxonomy_and_facts() {
        let mut kb = KbBuilder::new();
        let inst = vec![
            MergedInstance { entity: "E".into(), class: "entrepreneur".into(), confidence: 0.9 },
            MergedInstance { entity: "E".into(), class: "person".into(), confidence: 0.8 },
        ];
        let edges = vec![("entrepreneur".to_string(), "person".to_string())];
        let applied = load_into_kb(&mut kb, &inst, &edges, "taxonomy").unwrap();
        assert_eq!(applied, 1);
        assert_eq!(kb.len(), 2);
        let ent = kb.term("entrepreneur").unwrap();
        let person = kb.term("person").unwrap();
        assert!(kb.taxonomy.is_subclass_of(ent, person));
    }

    #[test]
    fn load_skips_cycle_inducing_edges() {
        let mut kb = KbBuilder::new();
        let edges = vec![("a".to_string(), "b".to_string()), ("b".to_string(), "a".to_string())];
        let applied = load_into_kb(&mut kb, &[], &edges, "t").unwrap();
        assert_eq!(applied, 1, "second edge closes a cycle and is skipped");
    }
}
