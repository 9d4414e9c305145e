//! Horn-rule mining over the knowledge base (AMIE-style), covering the
//! tutorial's "commonsense rules" topic: regularities like *the capital
//! of a country is located in it* or *marriage is symmetric* are mined
//! from the KB itself with support/confidence statistics, then usable
//! for KB completion.
//!
//! Three rule shapes are mined:
//!
//! * **implication** — `r1(x, y) ⇒ r2(x, y)`;
//! * **inverse** — `r1(x, y) ⇒ r2(y, x)` (symmetry when `r1 = r2`);
//! * **chain** — `r1(x, z) ∧ r2(z, y) ⇒ r3(x, y)`.
//!
//! Confidence comes in two flavors, as in AMIE: *standard* (body
//! instantiations satisfying the head over all body instantiations) and
//! *PCA* (denominator restricted to subjects for which the head
//! relation is known at all — the partial-completeness assumption that
//! makes mining on incomplete KBs meaningful).
//!
//! ```
//! use kb_store::KbBuilder;
//! use kb_harvest::rules::{mine_rules, RuleConfig, RuleShape};
//!
//! let mut kb = KbBuilder::new();
//! for i in 0..6 {
//!     let (a, b) = (format!("P{i}"), format!("Q{i}"));
//!     kb.assert_str(&a, "marriedTo", &b);
//!     kb.assert_str(&b, "marriedTo", &a);
//! }
//! let cfg = RuleConfig { min_support: 5, ..Default::default() };
//! let rules = mine_rules(&kb, &cfg);
//! assert!(rules.iter().any(|r| r.shape == RuleShape::Inverse && r.head == "marriedTo"));
//! ```

use std::collections::{HashMap, HashSet};
use std::fmt;

use kb_store::{KbRead, TermId};

/// The shape of a mined rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleShape {
    /// `r1(x, y) ⇒ r2(x, y)`
    Implication,
    /// `r1(x, y) ⇒ r2(y, x)`
    Inverse,
    /// `r1(x, z) ∧ r2(z, y) ⇒ r3(x, y)`
    Chain,
}

/// A mined Horn rule with its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Shape of the rule.
    pub shape: RuleShape,
    /// Body relation names (one for implication/inverse, two for chain).
    pub body: Vec<String>,
    /// Head relation name.
    pub head: String,
    /// Number of body instantiations whose head holds.
    pub support: usize,
    /// support / number of head facts.
    pub head_coverage: f64,
    /// support / number of body instantiations.
    pub std_confidence: f64,
    /// support / body instantiations whose subject has any head fact.
    pub pca_confidence: f64,
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shape {
            RuleShape::Implication => write!(f, "{}(x,y) ⇒ {}(x,y)", self.body[0], self.head)?,
            RuleShape::Inverse => write!(f, "{}(x,y) ⇒ {}(y,x)", self.body[0], self.head)?,
            RuleShape::Chain => {
                write!(f, "{}(x,z) ∧ {}(z,y) ⇒ {}(x,y)", self.body[0], self.body[1], self.head)?
            }
        }
        write!(
            f,
            "   [support {}, head-cov {:.2}, conf {:.2}, PCA {:.2}]",
            self.support, self.head_coverage, self.std_confidence, self.pca_confidence
        )
    }
}

/// Mining thresholds.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    /// Minimum support (body-and-head instantiations).
    pub min_support: usize,
    /// Minimum PCA confidence.
    pub min_pca_confidence: f64,
    /// Minimum *standard* confidence. PCA alone overrates rules whose
    /// head relation exists only for a biased subject subset (e.g.
    /// `locatedIn(x,y) ⇒ capitalOf(x,y)` scores PCA 1.0 because only
    /// capitals carry `capitalOf` facts); AMIE guards with both.
    pub min_std_confidence: f64,
    /// Minimum head coverage (filters trivial rules on huge relations).
    pub min_head_coverage: f64,
    /// Predicates excluded from mining (schema predicates).
    pub exclude: Vec<String>,
}

impl Default for RuleConfig {
    fn default() -> Self {
        Self {
            min_support: 5,
            min_pca_confidence: 0.5,
            min_std_confidence: 0.3,
            min_head_coverage: 0.1,
            exclude: vec!["instanceOf".to_string()],
        }
    }
}

/// Per-relation fact view used during mining.
struct RelView {
    name: String,
    pairs: Vec<(TermId, TermId)>,
    pair_set: HashSet<(TermId, TermId)>,
    by_subject: HashMap<TermId, Vec<TermId>>,
    subjects: HashSet<TermId>,
}

fn build_views<K: KbRead + ?Sized>(kb: &K, cfg: &RuleConfig) -> Vec<RelView> {
    let mut by_rel: HashMap<TermId, Vec<(TermId, TermId)>> = HashMap::new();
    for fact in kb.iter() {
        by_rel.entry(fact.triple.p).or_default().push((fact.triple.s, fact.triple.o));
    }
    let mut views: Vec<RelView> = by_rel
        .into_iter()
        .filter_map(|(p, pairs)| {
            let name = kb.resolve(p)?.to_string();
            if cfg.exclude.contains(&name) {
                return None;
            }
            let pair_set: HashSet<(TermId, TermId)> = pairs.iter().copied().collect();
            let mut by_subject: HashMap<TermId, Vec<TermId>> = HashMap::new();
            let mut subjects = HashSet::new();
            for &(s, o) in &pairs {
                by_subject.entry(s).or_default().push(o);
                subjects.insert(s);
            }
            Some(RelView { name, pairs, pair_set, by_subject, subjects })
        })
        .collect();
    views.sort_by(|a, b| a.name.cmp(&b.name));
    views
}

/// Scores one candidate rule given its body instantiations.
fn score(
    body_pairs: &HashSet<(TermId, TermId)>,
    head: &RelView,
    shape: RuleShape,
    body_names: Vec<String>,
) -> Rule {
    let support = body_pairs.iter().filter(|&&(x, y)| head.pair_set.contains(&(x, y))).count();
    let pca_denominator = body_pairs.iter().filter(|&&(x, _)| head.subjects.contains(&x)).count();
    let body_count = body_pairs.len();
    Rule {
        shape,
        body: body_names,
        head: head.name.clone(),
        support,
        head_coverage: if head.pairs.is_empty() {
            0.0
        } else {
            support as f64 / head.pairs.len() as f64
        },
        std_confidence: if body_count == 0 { 0.0 } else { support as f64 / body_count as f64 },
        pca_confidence: if pca_denominator == 0 {
            0.0
        } else {
            support as f64 / pca_denominator as f64
        },
    }
}

/// Mines all rules passing the thresholds, ranked by PCA confidence,
/// then support.
pub fn mine_rules<K: KbRead + ?Sized>(kb: &K, cfg: &RuleConfig) -> Vec<Rule> {
    let views = build_views(kb, cfg);
    let mut out: Vec<Rule> = Vec::new();
    let keep = |r: &Rule| {
        r.support >= cfg.min_support
            && r.pca_confidence >= cfg.min_pca_confidence
            && r.std_confidence >= cfg.min_std_confidence
            && r.head_coverage >= cfg.min_head_coverage
    };
    for body in &views {
        for head in &views {
            // Implication r_body(x,y) ⇒ r_head(x,y); skip the tautology.
            if body.name != head.name {
                let rule =
                    score(&body.pair_set, head, RuleShape::Implication, vec![body.name.clone()]);
                if keep(&rule) {
                    out.push(rule);
                }
            }
            // Inverse r_body(x,y) ⇒ r_head(y,x) (symmetry when equal).
            let inverted: HashSet<(TermId, TermId)> =
                body.pair_set.iter().map(|&(x, y)| (y, x)).collect();
            let rule = score(&inverted, head, RuleShape::Inverse, vec![body.name.clone()]);
            if keep(&rule) {
                out.push(rule);
            }
        }
    }
    // Chains r1(x,z) ∧ r2(z,y) ⇒ r3(x,y).
    for r1 in &views {
        for r2 in &views {
            let mut joined: HashSet<(TermId, TermId)> = HashSet::new();
            for &(x, z) in &r1.pairs {
                if let Some(ys) = r2.by_subject.get(&z) {
                    for &y in ys {
                        if x != y {
                            joined.insert((x, y));
                        }
                    }
                }
            }
            if joined.is_empty() {
                continue;
            }
            for head in &views {
                // Skip chains that trivially restate one body atom.
                if head.name == r1.name || head.name == r2.name {
                    continue;
                }
                let rule =
                    score(&joined, head, RuleShape::Chain, vec![r1.name.clone(), r2.name.clone()]);
                if keep(&rule) {
                    out.push(rule);
                }
            }
        }
    }
    out.sort_by(|a, b| {
        b.pca_confidence
            .partial_cmp(&a.pca_confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(b.support.cmp(&a.support))
            .then(a.head.cmp(&b.head))
            .then(a.body.cmp(&b.body))
    });
    out
}

/// A fact predicted by applying a rule (not yet in the KB).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PredictedFact {
    /// Subject canonical name.
    pub subject: String,
    /// Head relation name.
    pub relation: String,
    /// Object canonical name.
    pub object: String,
}

/// Applies mined rules to the KB: returns facts the rules *predict* but
/// the KB does not contain — rule-based KB completion.
pub fn apply_rules<K: KbRead + ?Sized>(
    kb: &K,
    rules: &[Rule],
    cfg: &RuleConfig,
) -> Vec<PredictedFact> {
    let views = build_views(kb, cfg);
    let view_of = |name: &str| views.iter().find(|v| v.name == name);
    let mut predictions: HashSet<PredictedFact> = HashSet::new();
    for rule in rules {
        let Some(head) = view_of(&rule.head) else { continue };
        let body_pairs: HashSet<(TermId, TermId)> = match rule.shape {
            RuleShape::Implication => match view_of(&rule.body[0]) {
                Some(v) => v.pair_set.clone(),
                None => continue,
            },
            RuleShape::Inverse => match view_of(&rule.body[0]) {
                Some(v) => v.pair_set.iter().map(|&(x, y)| (y, x)).collect(),
                None => continue,
            },
            RuleShape::Chain => {
                let (Some(r1), Some(r2)) = (view_of(&rule.body[0]), view_of(&rule.body[1])) else {
                    continue;
                };
                let mut joined = HashSet::new();
                for &(x, z) in &r1.pairs {
                    if let Some(ys) = r2.by_subject.get(&z) {
                        for &y in ys {
                            if x != y {
                                joined.insert((x, y));
                            }
                        }
                    }
                }
                joined
            }
        };
        for (x, y) in body_pairs {
            if !head.pair_set.contains(&(x, y)) {
                let (Some(s), Some(o)) = (kb.resolve(x), kb.resolve(y)) else { continue };
                predictions.insert(PredictedFact {
                    subject: s.to_string(),
                    relation: head.name.clone(),
                    object: o.to_string(),
                });
            }
        }
    }
    let mut out: Vec<PredictedFact> = predictions.into_iter().collect();
    out.sort_by(|a, b| {
        (&a.relation, &a.subject, &a.object).cmp(&(&b.relation, &b.subject, &b.object))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use kb_store::KbBuilder;

    /// A KB where capitalOf ⊑ locatedIn, marriedTo is symmetric, and
    /// bornIn ∘ locatedIn = citizenOf.
    fn sample() -> KbBuilder {
        let mut kb = KbBuilder::new();
        let cities = ["C1", "C2", "C3", "C4", "C5", "C6"];
        let countries = ["N1", "N2", "N3"];
        for (i, city) in cities.iter().enumerate() {
            let country = countries[i % countries.len()];
            kb.assert_str(city, "locatedIn", country);
            if i < countries.len() {
                kb.assert_str(city, "capitalOf", country);
            }
        }
        for i in 0..12 {
            let p = format!("P{i}");
            let q = format!("Q{i}");
            let city = cities[i % cities.len()];
            let country = countries[(i % cities.len()) % countries.len()];
            kb.assert_str(&p, "bornIn", city);
            kb.assert_str(&p, "citizenOf", country);
            kb.assert_str(&p, "marriedTo", &q);
            kb.assert_str(&q, "marriedTo", &p);
        }
        kb
    }

    fn lax() -> RuleConfig {
        RuleConfig {
            min_support: 3,
            min_pca_confidence: 0.5,
            min_std_confidence: 0.3,
            min_head_coverage: 0.05,
            ..Default::default()
        }
    }

    #[test]
    fn finds_capital_implies_located() {
        let rules = mine_rules(&sample(), &lax());
        let rule = rules
            .iter()
            .find(|r| {
                r.shape == RuleShape::Implication
                    && r.body == vec!["capitalOf"]
                    && r.head == "locatedIn"
            })
            .expect("capitalOf ⇒ locatedIn");
        assert_eq!(rule.std_confidence, 1.0);
        assert_eq!(rule.pca_confidence, 1.0);
        assert_eq!(rule.support, 3);
    }

    #[test]
    fn finds_marriage_symmetry() {
        let rules = mine_rules(&sample(), &lax());
        let rule = rules
            .iter()
            .find(|r| {
                r.shape == RuleShape::Inverse
                    && r.body == vec!["marriedTo"]
                    && r.head == "marriedTo"
            })
            .expect("marriedTo symmetry");
        assert_eq!(rule.std_confidence, 1.0);
        assert_eq!(rule.support, 24);
    }

    #[test]
    fn finds_the_citizenship_chain() {
        let rules = mine_rules(&sample(), &lax());
        let rule = rules
            .iter()
            .find(|r| {
                r.shape == RuleShape::Chain
                    && r.body == vec!["bornIn".to_string(), "locatedIn".to_string()]
                    && r.head == "citizenOf"
            })
            .expect("bornIn ∧ locatedIn ⇒ citizenOf");
        assert!(rule.std_confidence > 0.99);
        assert_eq!(rule.support, 12);
    }

    #[test]
    fn low_confidence_rules_are_filtered() {
        let rules = mine_rules(&sample(), &RuleConfig::default());
        for r in &rules {
            assert!(r.pca_confidence >= 0.5, "{r}");
            assert!(r.support >= 5, "{r}");
        }
        // bornIn ⇒ marriedTo must not survive.
        assert!(!rules.iter().any(|r| r.body == vec!["bornIn"] && r.head == "marriedTo"));
    }

    #[test]
    fn pca_confidence_ignores_unknown_subjects() {
        // Half the capital facts' locatedIn counterpart is "missing":
        // PCA confidence should stay high while std confidence drops.
        let mut kb = KbBuilder::new();
        for i in 0..10 {
            let city = format!("C{i}");
            kb.assert_str(&city, "capitalOf", "N");
            // Only half the cities have ANY locatedIn fact.
            if i % 2 == 0 {
                kb.assert_str(&city, "locatedIn", "N");
            }
        }
        let rules = mine_rules(&kb, &lax());
        let rule = rules
            .iter()
            .find(|r| r.shape == RuleShape::Implication && r.head == "locatedIn")
            .expect("rule survives thanks to PCA");
        assert!(rule.std_confidence < 0.6);
        assert_eq!(rule.pca_confidence, 1.0);
    }

    #[test]
    fn application_completes_the_kb() {
        // Remove some citizenships; the chain rule should predict them.
        let mut kb = sample();
        let p0 = kb.term("P0").unwrap();
        let citizen = kb.term("citizenOf").unwrap();
        let n1 = kb.term("N1").unwrap();
        kb.retract(kb_store::Triple::new(p0, citizen, n1));
        let rules = mine_rules(&kb, &lax());
        let predictions = apply_rules(&kb, &rules, &lax());
        assert!(
            predictions
                .iter()
                .any(|p| p.subject == "P0" && p.relation == "citizenOf" && p.object == "N1"),
            "missing citizenship not predicted: {predictions:?}"
        );
    }

    #[test]
    fn rules_render_readably() {
        let rules = mine_rules(&sample(), &lax());
        let text = rules[0].to_string();
        assert!(text.contains('⇒'));
        assert!(text.contains("support"));
    }

    #[test]
    fn empty_kb_mines_nothing() {
        let kb = KbBuilder::new();
        assert!(mine_rules(&kb, &RuleConfig::default()).is_empty());
    }
}
