//! Property-based tests for the harvesting core: the MaxSat solver is
//! checked against brute force, Gibbs marginals against exact
//! enumeration, and the rule miner against a naive reference
//! implementation.

use proptest::prelude::*;
use std::collections::HashSet;

use kb_harvest::factorgraph::{gibbs_marginals, FactorGraph, GibbsConfig};
use kb_harvest::reasoning::{solve, Lit, MaxSatProblem, SolverConfig};

/// Random small MaxSat instances.
fn small_instance() -> impl Strategy<Value = MaxSatProblem> {
    let clause = (
        prop::collection::vec((0usize..6, any::<bool>()), 1..3),
        prop_oneof![Just(f64::INFINITY), 0.1f64..2.0],
    );
    prop::collection::vec(clause, 1..8).prop_map(|clauses| {
        let mut p = MaxSatProblem::new(6);
        for (lits, weight) in clauses {
            let lits: Vec<Lit> =
                lits.into_iter().map(|(var, positive)| Lit { var, positive }).collect();
            if weight.is_infinite() {
                p.hard(lits);
            } else {
                p.soft(lits, weight);
            }
        }
        p
    })
}

/// Brute-force optimum of a small instance.
fn brute_force(p: &MaxSatProblem) -> (usize, f64) {
    let n = p.num_vars;
    let mut best = (usize::MAX, f64::INFINITY);
    for mask in 0..(1u32 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        let cost = p.cost(&assignment);
        if (cost.0, cost.1) < best {
            best = cost;
        }
    }
    best
}

/// Exact marginals of a small factor graph by enumeration.
fn exact_marginals(g: &FactorGraph) -> Vec<f64> {
    let n = g.num_vars;
    let mut weights = vec![0.0f64; 1 << n];
    for (mask, w) in weights.iter_mut().enumerate() {
        let state: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        let mut log_p = 0.0;
        for f in &g.factors {
            match f {
                kb_harvest::factorgraph::Factor::Unary { var, log_odds } => {
                    if state[*var] {
                        log_p += log_odds;
                    }
                }
                kb_harvest::factorgraph::Factor::Pairwise { a, b, table } => {
                    log_p += table[2 * usize::from(state[*a]) + usize::from(state[*b])];
                }
            }
        }
        *w = log_p.exp();
    }
    let z: f64 = weights.iter().sum();
    (0..n)
        .map(|v| {
            weights
                .iter()
                .enumerate()
                .filter(|&(mask, _)| mask & (1 << v) != 0)
                .map(|(_, w)| w)
                .sum::<f64>()
                / z
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The stochastic solver matches the brute-force optimum on small
    /// instances (hard count always; soft cost within epsilon when hard
    /// counts agree).
    #[test]
    fn maxsat_matches_brute_force(p in small_instance()) {
        let cfg = SolverConfig { flips_per_var: 60, restarts: 6, ..Default::default() };
        let sol = solve(&p, &cfg);
        let (best_hard, best_soft) = brute_force(&p);
        prop_assert_eq!(sol.hard_violations, best_hard, "hard optimum missed");
        prop_assert!(
            sol.soft_cost <= best_soft + 1e-9,
            "soft cost {} worse than optimum {}",
            sol.soft_cost,
            best_soft
        );
    }

    /// Gibbs marginals approximate exact enumeration on small graphs.
    #[test]
    fn gibbs_approximates_exact(
        unaries in prop::collection::vec(-2.0f64..2.0, 3),
        couple in -2.0f64..2.0,
    ) {
        let mut g = FactorGraph::new(3);
        for (v, &lo) in unaries.iter().enumerate() {
            g.unary(v, lo);
        }
        g.pairwise(0, 1, [couple, -couple, -couple, couple]);
        let exact = exact_marginals(&g);
        let est = gibbs_marginals(&g, &GibbsConfig { burn_in: 300, samples: 3000, ..Default::default() });
        for (e, m) in exact.iter().zip(&est) {
            prop_assert!((e - m).abs() < 0.08, "exact {e} vs gibbs {m}");
        }
    }

    /// Mined n-ary rule statistics are internally consistent: support ≤
    /// min(body size, head size) and confidences in [0, 1].
    #[test]
    fn rule_stats_are_consistent(
        facts in prop::collection::vec((0u8..8, 0u8..3, 0u8..8), 1..60)
    ) {
        let mut kb = kb_store::KbBuilder::new();
        for (s, r, o) in &facts {
            kb.assert_str(&format!("e{s}"), &format!("r{r}"), &format!("e{o}"));
        }
        let cfg = kb_harvest::rules::RuleConfig {
            min_support: 1,
            min_pca_confidence: 0.0,
            min_std_confidence: 0.0,
            min_head_coverage: 0.0,
            ..Default::default()
        };
        let rules = kb_harvest::rules::mine_rules(&kb, &cfg);
        for r in &rules {
            prop_assert!((0.0..=1.0).contains(&r.std_confidence), "{r}");
            prop_assert!((0.0..=1.0 + 1e-9).contains(&r.pca_confidence), "{r}");
            prop_assert!((0.0..=1.0).contains(&r.head_coverage), "{r}");
            prop_assert!(r.std_confidence <= r.pca_confidence + 1e-9,
                "std must not exceed PCA: {r}");
        }
    }

    /// Rule application never predicts facts already in the KB.
    #[test]
    fn rule_application_predicts_only_novel_facts(
        facts in prop::collection::vec((0u8..6, 0u8..3, 0u8..6), 1..40)
    ) {
        let mut kb = kb_store::KbBuilder::new();
        let mut present: HashSet<(String, String, String)> = HashSet::new();
        for (s, r, o) in &facts {
            let (s, r, o) = (format!("e{s}"), format!("r{r}"), format!("e{o}"));
            kb.assert_str(&s, &r, &o);
            present.insert((s, r, o));
        }
        let cfg = kb_harvest::rules::RuleConfig {
            min_support: 1,
            min_pca_confidence: 0.0,
            min_std_confidence: 0.0,
            min_head_coverage: 0.0,
            ..Default::default()
        };
        let rules = kb_harvest::rules::mine_rules(&kb, &cfg);
        for p in kb_harvest::rules::apply_rules(&kb, &rules, &cfg) {
            prop_assert!(
                !present.contains(&(p.subject.clone(), p.relation.clone(), p.object.clone())),
                "predicted an existing fact {p:?}"
            );
        }
    }

    /// Temporal inference returns a span consistent with its hints.
    #[test]
    fn inferred_span_is_supported_by_hints(
        hints in prop::collection::vec(
            (prop::option::of(1900i32..2000), any::<bool>()),
            0..10
        )
    ) {
        use kb_harvest::facts::patterns::TimeHint;
        let hints: Vec<TimeHint> = hints
            .into_iter()
            .map(|(b, interval)| TimeHint {
                begin: b,
                end: if interval { b.map(|y| y + 5) } else { None },
            })
            .collect();
        match kb_harvest::temporal::infer_span(&hints) {
            None => prop_assert!(hints.iter().all(|h| h.begin.is_none())),
            Some(span) => {
                let begin = span.begin.expect("inferred spans have a begin");
                prop_assert!(
                    hints.iter().any(|h| h.begin == Some(begin.year)),
                    "begin {begin} not among hints"
                );
            }
        }
    }
}
