//! Boolean factor graphs with Gibbs-sampling marginal inference —
//! the DeepDive-style statistical-inference backend (tutorial §3,
//! "statistical learning, e.g. factor graphs and MLN's").
//!
//! Variables are booleans; factors are log-potentials over one or two
//! variables. [`gibbs_marginals`] estimates `P(x = true)` for every
//! variable. `infer_candidates` wires candidate facts into a graph:
//! unary evidence factors from extraction confidence, negative pairwise
//! factors between constraint-violating pairs — the *soft* counterpart
//! of the MaxSat reasoner's hard clauses.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use crate::facts::extract::CandidateFact;
use crate::facts::relation_spec;
use crate::facts::scoring::{type_verdict, TypeIndex, TypeVerdict};

/// A factor over one or two boolean variables.
#[derive(Debug, Clone)]
pub enum Factor {
    /// `log φ(x) = if x { log_odds } else { 0 }` — evidence for/against
    /// one variable.
    Unary {
        /// The variable.
        var: usize,
        /// Log-odds contributed when the variable is true.
        log_odds: f64,
    },
    /// Full pairwise table: `table[2*a + b]` is the log-potential of
    /// assignment `(a, b)`.
    Pairwise {
        /// First variable.
        a: usize,
        /// Second variable.
        b: usize,
        /// Log-potentials for (false,false), (false,true), (true,false),
        /// (true,true).
        table: [f64; 4],
    },
}

/// A factor graph over boolean variables.
#[derive(Debug, Clone, Default)]
pub struct FactorGraph {
    /// Number of variables.
    pub num_vars: usize,
    /// All factors.
    pub factors: Vec<Factor>,
}

impl FactorGraph {
    /// Creates a graph with `num_vars` variables and no factors.
    pub fn new(num_vars: usize) -> Self {
        Self { num_vars, factors: Vec::new() }
    }

    /// Adds unary evidence.
    pub fn unary(&mut self, var: usize, log_odds: f64) {
        self.factors.push(Factor::Unary { var, log_odds });
    }

    /// Adds a pairwise factor.
    pub fn pairwise(&mut self, a: usize, b: usize, table: [f64; 4]) {
        self.factors.push(Factor::Pairwise { a, b, table });
    }

    /// Adds a mutual-exclusion penalty: log-potential `-penalty` when
    /// both variables are true.
    pub(crate) fn mutex(&mut self, a: usize, b: usize, penalty: f64) {
        self.pairwise(a, b, [0.0, 0.0, 0.0, -penalty]);
    }
}

/// Gibbs-sampling parameters.
#[derive(Debug, Clone, Copy)]
pub struct GibbsConfig {
    /// RNG seed.
    pub seed: u64,
    /// Burn-in sweeps before sampling.
    pub burn_in: usize,
    /// Sweeps whose states are averaged into marginals.
    pub samples: usize,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        Self { seed: 17, burn_in: 100, samples: 400 }
    }
}

/// Estimates `P(x_v = true)` for every variable by Gibbs sampling.
pub fn gibbs_marginals(graph: &FactorGraph, cfg: &GibbsConfig) -> Vec<f64> {
    let n = graph.num_vars;
    if n == 0 {
        return vec![];
    }
    // var -> indices of factors touching it.
    let mut touching: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (fi, f) in graph.factors.iter().enumerate() {
        match f {
            Factor::Unary { var, .. } => touching[*var].push(fi),
            Factor::Pairwise { a, b, .. } => {
                touching[*a].push(fi);
                if b != a {
                    touching[*b].push(fi);
                }
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut state: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let mut true_counts = vec![0usize; n];

    // Energy difference for setting var v true vs false, given the rest.
    let delta = |state: &[bool], v: usize, touching: &[Vec<usize>]| -> f64 {
        let mut d = 0.0;
        for &fi in &touching[v] {
            match &graph.factors[fi] {
                Factor::Unary { var, log_odds } => {
                    debug_assert_eq!(*var, v);
                    d += log_odds;
                }
                Factor::Pairwise { a, b, table } => {
                    let (other, v_is_a) = if *a == v { (*b, true) } else { (*a, false) };
                    let o = state[other];
                    let (with_true, with_false) = if v_is_a {
                        (table[2 + usize::from(o)], table[usize::from(o)])
                    } else {
                        (table[2 * usize::from(o) + 1], table[2 * usize::from(o)])
                    };
                    d += with_true - with_false;
                }
            }
        }
        d
    };

    for sweep in 0..cfg.burn_in + cfg.samples {
        for v in 0..n {
            let d = delta(&state, v, &touching);
            let p_true = 1.0 / (1.0 + (-d).exp());
            state[v] = rng.gen_bool(p_true.clamp(1e-9, 1.0 - 1e-9));
        }
        if sweep >= cfg.burn_in {
            for v in 0..n {
                if state[v] {
                    true_counts[v] += 1;
                }
            }
        }
    }
    true_counts.into_iter().map(|c| c as f64 / cfg.samples.max(1) as f64).collect()
}

/// Converts a confidence in `(0,1)` to clamped log-odds.
pub(crate) fn confidence_log_odds(conf: f64) -> f64 {
    let c = conf.clamp(0.02, 0.98);
    (c / (1.0 - c)).ln()
}

/// Builds the candidate-fact factor graph and returns per-candidate
/// marginal probabilities.
///
/// Encoding: unary evidence `logit(confidence)`; type violations add a
/// strong negative unary; functionality / inverse-functionality
/// conflicts become pairwise mutex penalties (soft, unlike the MaxSat
/// reasoner's hard clauses).
pub(crate) fn infer_candidates(
    candidates: &[CandidateFact],
    types: &TypeIndex,
    cfg: &GibbsConfig,
) -> Vec<f64> {
    let n = candidates.len();
    let mut graph = FactorGraph::new(n);
    for (i, c) in candidates.iter().enumerate() {
        graph.unary(i, confidence_log_odds(c.confidence));
        if type_verdict(c, types) == TypeVerdict::Violation {
            graph.unary(i, -6.0);
        }
    }
    let mut by_sr: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    let mut by_ro: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    for (i, c) in candidates.iter().enumerate() {
        by_sr.entry((c.subject.as_str(), c.relation.as_str())).or_default().push(i);
        by_ro.entry((c.relation.as_str(), c.object.as_str())).or_default().push(i);
    }
    for ((_, rel), group) in &by_sr {
        let Some(spec) = relation_spec(rel) else { continue };
        if !spec.functional {
            continue;
        }
        for (pos, &a) in group.iter().enumerate() {
            for &b in &group[pos + 1..] {
                if candidates[a].object != candidates[b].object {
                    graph.mutex(a, b, 6.0);
                }
            }
        }
    }
    for ((rel, _), group) in &by_ro {
        let Some(spec) = relation_spec(rel) else { continue };
        if !spec.inverse_functional {
            continue;
        }
        for (pos, &a) in group.iter().enumerate() {
            for &b in &group[pos + 1..] {
                if candidates[a].subject != candidates[b].subject {
                    graph.mutex(a, b, 6.0);
                }
            }
        }
    }
    gibbs_marginals(&graph, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_unary_evidence_drives_marginals() {
        let mut g = FactorGraph::new(2);
        g.unary(0, 3.0);
        g.unary(1, -3.0);
        let m = gibbs_marginals(&g, &GibbsConfig::default());
        assert!(m[0] > 0.85, "m0 = {}", m[0]);
        assert!(m[1] < 0.15, "m1 = {}", m[1]);
    }

    #[test]
    fn no_factors_means_uniform_marginals() {
        let g = FactorGraph::new(1);
        let m = gibbs_marginals(&g, &GibbsConfig { samples: 2000, ..Default::default() });
        assert!((m[0] - 0.5).abs() < 0.1, "m = {}", m[0]);
    }

    #[test]
    fn mutex_suppresses_the_weaker_variable() {
        let mut g = FactorGraph::new(2);
        g.unary(0, 2.0);
        g.unary(1, 1.0);
        g.mutex(0, 1, 8.0);
        let m = gibbs_marginals(&g, &GibbsConfig::default());
        assert!(m[0] > m[1] + 0.2, "m = {m:?}");
        assert!(m[0] > 0.6);
    }

    #[test]
    fn positive_coupling_correlates_variables() {
        // x0 has strong evidence; x1 none, but coupled to x0.
        let mut g = FactorGraph::new(2);
        g.unary(0, 3.0);
        g.pairwise(0, 1, [1.5, -1.5, -1.5, 1.5]); // agreement reward
        let m = gibbs_marginals(&g, &GibbsConfig::default());
        assert!(m[1] > 0.7, "coupled var should follow: {}", m[1]);
    }

    #[test]
    fn marginals_are_deterministic_per_seed() {
        let mut g = FactorGraph::new(3);
        g.unary(0, 1.0);
        g.mutex(0, 1, 4.0);
        g.unary(2, -0.5);
        let cfg = GibbsConfig::default();
        assert_eq!(gibbs_marginals(&g, &cfg), gibbs_marginals(&g, &cfg));
    }

    #[test]
    fn empty_graph() {
        assert!(gibbs_marginals(&FactorGraph::new(0), &GibbsConfig::default()).is_empty());
    }

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

    #[test]
    fn candidate_inference_resolves_functionality_conflicts() {
        let cands =
            vec![cand("Alan", "bornIn", "Lund", 0.95), cand("Alan", "bornIn", "Torberg", 0.4)];
        let m = infer_candidates(&cands, &TypeIndex::new(), &GibbsConfig::default());
        assert!(m[0] > 0.7, "strong candidate survives: {}", m[0]);
        assert!(m[1] < 0.45, "weak conflicting candidate suppressed: {}", m[1]);
    }

    #[test]
    fn candidate_inference_punishes_type_violations() {
        let mut types = TypeIndex::new();
        types.insert("AcmeCo".into(), ["company".to_string()].into_iter().collect());
        types.insert("Lund".into(), ["city".to_string()].into_iter().collect());
        let cands = vec![cand("AcmeCo", "bornIn", "Lund", 0.9)];
        let m = infer_candidates(&cands, &types, &GibbsConfig::default());
        assert!(m[0] < 0.2, "type violation must sink the marginal: {}", m[0]);
    }

    #[test]
    fn log_odds_conversion_is_clamped_and_monotone() {
        assert!(confidence_log_odds(0.999) <= confidence_log_odds(0.9999) + 1e-9);
        assert!(confidence_log_odds(0.9) > 0.0);
        assert!(confidence_log_odds(0.1) < 0.0);
        assert!(confidence_log_odds(0.0).is_finite());
        assert!(confidence_log_odds(1.0).is_finite());
    }
}
