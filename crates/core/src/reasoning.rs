//! Consistency reasoning via weighted MaxSat (SOFIE-style, tutorial §3
//! "logical consistency reasoning, e.g. weighted MaxSat or ILP
//! solvers").
//!
//! Two layers:
//!
//! * a generic weighted-MaxSat solver ([`MaxSatProblem`], [`solve`]) —
//!   stochastic local search (WalkSAT lineage) with incremental cost
//!   maintenance, hard clauses dominating lexicographically, restarts,
//!   and a deterministic seed;
//! * the fact-cleaning encoding ([`reason_candidates`]): one variable
//!   per candidate fact; soft unit clauses weighted by extraction
//!   confidence; hard mutual-exclusion clauses from functionality /
//!   inverse-functionality; hard rejection of type-violating candidates.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

use crate::facts::extract::CandidateFact;
use crate::facts::relation_spec;
use crate::facts::scoring::{type_verdict, TypeIndex, TypeVerdict};

/// A propositional variable (index).
pub type Var = usize;

/// A literal: variable plus polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lit {
    /// The variable.
    pub var: Var,
    /// `true` for the positive literal `x`, `false` for `¬x`.
    pub positive: bool,
}

impl Lit {
    /// Positive literal.
    pub fn pos(var: Var) -> Self {
        Self { var, positive: true }
    }

    /// Negative literal.
    pub(crate) fn neg(var: Var) -> Self {
        Self { var, positive: false }
    }

    /// Whether the literal is satisfied under `assignment`.
    #[inline]
    pub(crate) fn satisfied(&self, assignment: &[bool]) -> bool {
        assignment[self.var] == self.positive
    }
}

/// A weighted clause. `weight == f64::INFINITY` marks a hard clause.
#[derive(Debug, Clone)]
pub struct Clause {
    /// Disjunction of literals.
    pub lits: Vec<Lit>,
    /// Violation cost; infinite for hard clauses.
    pub weight: f64,
}

/// A weighted MaxSat instance.
#[derive(Debug, Clone, Default)]
pub struct MaxSatProblem {
    /// Number of variables (vars are `0..num_vars`).
    pub num_vars: usize,
    /// All clauses.
    pub clauses: Vec<Clause>,
}

impl MaxSatProblem {
    /// Creates an instance over `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Self { num_vars, clauses: Vec::new() }
    }

    /// Adds a soft clause.
    pub fn soft(&mut self, lits: Vec<Lit>, weight: f64) {
        debug_assert!(weight.is_finite() && weight >= 0.0);
        self.clauses.push(Clause { lits, weight });
    }

    /// Adds a hard clause.
    pub fn hard(&mut self, lits: Vec<Lit>) {
        self.clauses.push(Clause { lits, weight: f64::INFINITY });
    }

    /// Cost of an assignment: `(hard violations, soft violated weight)`.
    pub fn cost(&self, assignment: &[bool]) -> (usize, f64) {
        let mut hard = 0usize;
        let mut soft = 0.0;
        for c in &self.clauses {
            if !c.lits.iter().any(|l| l.satisfied(assignment)) {
                if c.weight.is_infinite() {
                    hard += 1;
                } else {
                    soft += c.weight;
                }
            }
        }
        (hard, soft)
    }
}

/// Solver parameters.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// RNG seed (solver is deterministic given the seed).
    pub seed: u64,
    /// Flips per restart, as a multiple of the variable count.
    pub flips_per_var: usize,
    /// Probability of a random (non-greedy) flip inside a violated clause.
    pub noise: f64,
    /// Number of restarts.
    pub restarts: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self { seed: 7, flips_per_var: 30, noise: 0.1, restarts: 3 }
    }
}

/// The solver's result.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Best assignment found.
    pub assignment: Vec<bool>,
    /// Hard clauses still violated (0 for feasible instances in practice).
    pub hard_violations: usize,
    /// Violated soft weight.
    pub soft_cost: f64,
}

/// Solves a weighted MaxSat instance by stochastic local search with
/// greedy initialization (positive soft-unit bias) and restarts.
pub fn solve(problem: &MaxSatProblem, cfg: &SolverConfig) -> Solution {
    let n = problem.num_vars;
    if n == 0 {
        return Solution { assignment: vec![], hard_violations: 0, soft_cost: 0.0 };
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // var -> clause indices containing it (each clause once, even when
    // a variable occurs in several literals of the same clause).
    let mut occurs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (ci, c) in problem.clauses.iter().enumerate() {
        for l in &c.lits {
            occurs[l.var].push(ci);
        }
    }
    for list in &mut occurs {
        list.sort_unstable();
        list.dedup();
    }
    // Greedy init: a var starts true iff its positive soft-unit weight
    // exceeds its negative soft-unit weight.
    let mut bias = vec![0.0f64; n];
    for c in &problem.clauses {
        if c.lits.len() == 1 && c.weight.is_finite() {
            let l = c.lits[0];
            bias[l.var] += if l.positive { c.weight } else { -c.weight };
        }
    }
    let init: Vec<bool> = bias.iter().map(|&b| b > 0.0).collect();

    let mut best: Option<Solution> = None;
    for restart in 0..cfg.restarts.max(1) {
        let mut assignment =
            if restart == 0 { init.clone() } else { (0..n).map(|_| rng.gen_bool(0.5)).collect() };
        // sat_count[ci] = number of satisfied literals in clause ci.
        let mut sat_count: Vec<u32> = problem
            .clauses
            .iter()
            .map(|c| c.lits.iter().filter(|l| l.satisfied(&assignment)).count() as u32)
            .collect();
        // Violated-clause bookkeeping, maintained incrementally: two
        // indexed sets (hard / soft) supporting O(1) insert, remove and
        // uniform sampling.
        let mut viol_hard = IndexedSet::new(problem.clauses.len());
        let mut viol_soft = IndexedSet::new(problem.clauses.len());
        for (ci, &s) in sat_count.iter().enumerate() {
            if s == 0 {
                if problem.clauses[ci].weight.is_infinite() {
                    viol_hard.insert(ci);
                } else {
                    viol_soft.insert(ci);
                }
            }
        }
        let mut current_cost = problem.cost(&assignment);
        let mut local_best = Solution {
            assignment: assignment.clone(),
            hard_violations: current_cost.0,
            soft_cost: current_cost.1,
        };
        let max_flips = cfg.flips_per_var.max(1) * n;
        for _ in 0..max_flips {
            // Prefer violated hard clauses, but keep a 20% chance of
            // working a soft clause: when the hard clauses are jointly
            // unsatisfiable the walk must still optimize the soft layer.
            let ci = match (viol_hard.is_empty(), viol_soft.is_empty()) {
                (true, true) => break, // everything satisfied: optimal
                (false, true) => viol_hard.sample(&mut rng),
                (true, false) => viol_soft.sample(&mut rng),
                (false, false) => {
                    if rng.gen_bool(0.8) {
                        viol_hard.sample(&mut rng)
                    } else {
                        viol_soft.sample(&mut rng)
                    }
                }
            };
            let clause = &problem.clauses[ci];
            // Choose the variable to flip.
            let flip_var = if rng.gen_bool(cfg.noise) {
                clause.lits[rng.gen_range(0..clause.lits.len())].var
            } else {
                // Greedy: flip the var minimizing resulting cost delta.
                let mut best_var = clause.lits[0].var;
                let mut best_delta = (isize::MAX, f64::INFINITY);
                for l in &clause.lits {
                    let delta = flip_delta(problem, &occurs, &assignment, &sat_count, l.var);
                    if delta < best_delta {
                        best_delta = delta;
                        best_var = l.var;
                    }
                }
                best_var
            };
            // Maintain the current cost incrementally: a full
            // problem.cost() per flip would make the search O(n²).
            let (dh, ds) = flip_delta(problem, &occurs, &assignment, &sat_count, flip_var);
            apply_flip(
                problem,
                &occurs,
                &mut assignment,
                &mut sat_count,
                flip_var,
                &mut viol_hard,
                &mut viol_soft,
            );
            current_cost =
                (current_cost.0.saturating_add_signed(dh), (current_cost.1 + ds).max(0.0));
            if (current_cost.0, current_cost.1) < (local_best.hard_violations, local_best.soft_cost)
            {
                local_best = Solution {
                    assignment: assignment.clone(),
                    hard_violations: current_cost.0,
                    soft_cost: current_cost.1,
                };
            }
        }
        let better = match &best {
            None => true,
            Some(b) => {
                (local_best.hard_violations, local_best.soft_cost)
                    < (b.hard_violations, b.soft_cost)
            }
        };
        if better {
            best = Some(local_best);
        }
    }
    best.expect("at least one restart ran")
}

/// Cost delta (hard, soft) of flipping `var`, computed from the clauses
/// it occurs in.
fn flip_delta(
    problem: &MaxSatProblem,
    occurs: &[Vec<usize>],
    assignment: &[bool],
    sat_count: &[u32],
    var: Var,
) -> (isize, f64) {
    let mut hard_gain = 0isize;
    let mut soft_gain = 0.0f64;
    for &ci in &occurs[var] {
        let c = &problem.clauses[ci];
        // Net change in this clause's satisfied-literal count if `var`
        // flips (a variable may occur in several literals, e.g. x ∨ ¬x).
        let delta: i64 = c
            .lits
            .iter()
            .filter(|l| l.var == var)
            .map(|l| if l.satisfied(assignment) { -1i64 } else { 1 })
            .sum();
        let before = sat_count[ci] as i64;
        let after = before + delta;
        let newly_violated = before > 0 && after == 0;
        let newly_satisfied = before == 0 && after > 0;
        if newly_violated {
            if c.weight.is_infinite() {
                hard_gain += 1;
            } else {
                soft_gain += c.weight;
            }
        } else if newly_satisfied {
            if c.weight.is_infinite() {
                hard_gain -= 1;
            } else {
                soft_gain -= c.weight;
            }
        }
    }
    (hard_gain, soft_gain)
}

/// Applies a flip, updating sat counts and violated sets incrementally.
#[allow(clippy::too_many_arguments)]
fn apply_flip(
    problem: &MaxSatProblem,
    occurs: &[Vec<usize>],
    assignment: &mut [bool],
    sat_count: &mut [u32],
    var: Var,
    viol_hard: &mut IndexedSet,
    viol_soft: &mut IndexedSet,
) {
    assignment[var] = !assignment[var];
    for &ci in &occurs[var] {
        let c = &problem.clauses[ci];
        let was_violated = sat_count[ci] == 0;
        // Recompute the clause's net change (assignment already flipped:
        // literals now satisfied gained, literals now unsatisfied lost).
        let delta: i64 = c
            .lits
            .iter()
            .filter(|l| l.var == var)
            .map(|l| if l.satisfied(assignment) { 1i64 } else { -1 })
            .sum();
        sat_count[ci] = (sat_count[ci] as i64 + delta)
            .try_into()
            .expect("satisfied-literal count must stay non-negative");
        let is_violated = sat_count[ci] == 0;
        if was_violated != is_violated {
            let set = if c.weight.is_infinite() { &mut *viol_hard } else { &mut *viol_soft };
            if is_violated {
                set.insert(ci);
            } else {
                set.remove(ci);
            }
        }
    }
}

/// An indexed set over `0..capacity` with O(1) insert/remove/sample.
#[derive(Debug)]
struct IndexedSet {
    items: Vec<usize>,
    position: Vec<usize>,
}

impl IndexedSet {
    const ABSENT: usize = usize::MAX;

    fn new(capacity: usize) -> Self {
        Self { items: Vec::new(), position: vec![Self::ABSENT; capacity] }
    }

    fn insert(&mut self, x: usize) {
        if self.position[x] != Self::ABSENT {
            return;
        }
        self.position[x] = self.items.len();
        self.items.push(x);
    }

    fn remove(&mut self, x: usize) {
        let pos = self.position[x];
        if pos == Self::ABSENT {
            return;
        }
        let last = *self.items.last().expect("non-empty when removing");
        self.items.swap_remove(pos);
        if last != x {
            self.position[last] = pos;
        }
        self.position[x] = Self::ABSENT;
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        self.items[rng.gen_range(0..self.items.len())]
    }
}

/// Result of consistency reasoning over candidates.
#[derive(Debug, Clone)]
pub struct ReasoningOutcome {
    /// Indices (into the candidate slice) of accepted facts.
    pub accepted: Vec<usize>,
    /// Indices of rejected facts.
    pub rejected: Vec<usize>,
    /// Number of hard constraints generated.
    pub hard_clauses: usize,
}

/// Builds the SOFIE-style encoding over candidate facts and solves it.
///
/// * soft unit `x_i` with weight = confidence (evidence for the fact);
/// * hard `¬x_i ∨ ¬x_j` for pairs violating functionality or inverse
///   functionality of the declared schema;
/// * hard `¬x_i` for candidates whose harvested types contradict the
///   relation signature.
pub fn reason_candidates(
    candidates: &[CandidateFact],
    types: &TypeIndex,
    cfg: &SolverConfig,
) -> ReasoningOutcome {
    let n = candidates.len();
    let mut problem = MaxSatProblem::new(n);
    for (i, c) in candidates.iter().enumerate() {
        problem.soft(vec![Lit::pos(i)], c.confidence.max(1e-6));
        if type_verdict(c, types) == TypeVerdict::Violation {
            problem.hard(vec![Lit::neg(i)]);
        }
    }
    // Functionality conflicts: group by (subject, relation). Ordered
    // maps, because the groups are walked to emit clauses: clause order
    // is the problem the seeded solver sees, so it must not follow the
    // process's hash seed.
    let mut by_sr: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut by_ro: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, c) in candidates.iter().enumerate() {
        by_sr.entry((c.subject.as_str(), c.relation.as_str())).or_default().push(i);
        by_ro.entry((c.relation.as_str(), c.object.as_str())).or_default().push(i);
    }
    let mut hard_clauses =
        candidates.iter().filter(|c| type_verdict(c, types) == TypeVerdict::Violation).count();
    for ((_, rel), group) in &by_sr {
        let Some(spec) = relation_spec(rel) else { continue };
        if !spec.functional || group.len() < 2 {
            continue;
        }
        for (a_pos, &a) in group.iter().enumerate() {
            for &b in &group[a_pos + 1..] {
                if candidates[a].object != candidates[b].object {
                    problem.hard(vec![Lit::neg(a), Lit::neg(b)]);
                    hard_clauses += 1;
                }
            }
        }
    }
    for ((rel, _), group) in &by_ro {
        let Some(spec) = relation_spec(rel) else { continue };
        if !spec.inverse_functional || group.len() < 2 {
            continue;
        }
        for (a_pos, &a) in group.iter().enumerate() {
            for &b in &group[a_pos + 1..] {
                if candidates[a].subject != candidates[b].subject {
                    problem.hard(vec![Lit::neg(a), Lit::neg(b)]);
                    hard_clauses += 1;
                }
            }
        }
    }
    let solution = solve(&problem, cfg);
    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    for (i, &v) in solution.assignment.iter().enumerate() {
        if v {
            accepted.push(i);
        } else {
            rejected.push(i);
        }
    }
    ReasoningOutcome { accepted, rejected, hard_clauses }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfiable_instance_reaches_zero_cost() {
        // (x0 ∨ x1) ∧ (¬x0 ∨ x2) hard; soft prefers x1, x2 true.
        let mut p = MaxSatProblem::new(3);
        p.hard(vec![Lit::pos(0), Lit::pos(1)]);
        p.hard(vec![Lit::neg(0), Lit::pos(2)]);
        p.soft(vec![Lit::pos(1)], 1.0);
        p.soft(vec![Lit::pos(2)], 1.0);
        let s = solve(&p, &SolverConfig::default());
        assert_eq!(s.hard_violations, 0);
        assert_eq!(s.soft_cost, 0.0);
        assert!(s.assignment[1] && s.assignment[2]);
    }

    #[test]
    fn solver_keeps_the_heavier_of_two_conflicting_facts() {
        // x0 and x1 mutually exclusive; x0 has more evidence.
        let mut p = MaxSatProblem::new(2);
        p.hard(vec![Lit::neg(0), Lit::neg(1)]);
        p.soft(vec![Lit::pos(0)], 0.9);
        p.soft(vec![Lit::pos(1)], 0.3);
        let s = solve(&p, &SolverConfig::default());
        assert_eq!(s.hard_violations, 0);
        assert!(s.assignment[0]);
        assert!(!s.assignment[1]);
        assert!((s.soft_cost - 0.3).abs() < 1e-12);
    }

    #[test]
    fn hard_unit_clauses_force_values() {
        let mut p = MaxSatProblem::new(1);
        p.hard(vec![Lit::neg(0)]);
        p.soft(vec![Lit::pos(0)], 100.0);
        let s = solve(&p, &SolverConfig::default());
        assert_eq!(s.hard_violations, 0);
        assert!(!s.assignment[0], "hard ¬x must beat any soft weight");
    }

    #[test]
    fn solver_is_deterministic_per_seed() {
        let mut p = MaxSatProblem::new(6);
        for i in 0..5 {
            p.hard(vec![Lit::neg(i), Lit::neg(i + 1)]);
            p.soft(vec![Lit::pos(i)], 0.5 + i as f64 * 0.05);
        }
        let a = solve(&p, &SolverConfig::default());
        let b = solve(&p, &SolverConfig::default());
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn empty_problem_is_trivial() {
        let p = MaxSatProblem::new(0);
        let s = solve(&p, &SolverConfig::default());
        assert!(s.assignment.is_empty());
        assert_eq!(s.hard_violations, 0);
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
    fn functionality_conflict_keeps_stronger_candidate() {
        // Two birthplaces for Alan: reasoning must keep the stronger.
        let cands = vec![
            cand("Alan", "bornIn", "Lund", 0.9),
            cand("Alan", "bornIn", "Torberg", 0.4),
            cand("Bea", "bornIn", "Lund", 0.8),
        ];
        let types = TypeIndex::new();
        let out = reason_candidates(&cands, &types, &SolverConfig::default());
        assert!(out.accepted.contains(&0));
        assert!(out.rejected.contains(&1));
        assert!(out.accepted.contains(&2), "unrelated facts stay");
        assert_eq!(out.hard_clauses, 1);
    }

    #[test]
    fn inverse_functionality_is_enforced() {
        // Two companies claiming the same product.
        let cands = vec![
            cand("AcmeCo", "created", "Strato 3", 0.9),
            cand("BetaCo", "created", "Strato 3", 0.5),
        ];
        let out = reason_candidates(&cands, &TypeIndex::new(), &SolverConfig::default());
        assert!(out.accepted.contains(&0));
        assert!(out.rejected.contains(&1));
    }

    #[test]
    fn type_violations_are_hard_rejected() {
        let mut types = TypeIndex::new();
        types.insert("AcmeCo".into(), ["company".to_string()].into_iter().collect());
        types.insert("Lund".into(), ["city".to_string()].into_iter().collect());
        let cands = vec![cand("AcmeCo", "bornIn", "Lund", 0.99)];
        let out = reason_candidates(&cands, &types, &SolverConfig::default());
        assert!(out.accepted.is_empty());
        assert_eq!(out.rejected, vec![0]);
    }

    #[test]
    fn non_functional_relations_allow_multiple_objects() {
        let cands =
            vec![cand("Alan", "founded", "AcmeCo", 0.9), cand("Alan", "founded", "BetaCo", 0.9)];
        let out = reason_candidates(&cands, &TypeIndex::new(), &SolverConfig::default());
        assert_eq!(out.accepted.len(), 2);
        assert_eq!(out.hard_clauses, 0);
    }

    #[test]
    fn same_object_duplicates_do_not_conflict() {
        let cands = vec![cand("Alan", "bornIn", "Lund", 0.9), cand("Alan", "bornIn", "Lund", 0.7)];
        let out = reason_candidates(&cands, &TypeIndex::new(), &SolverConfig::default());
        assert_eq!(out.accepted.len(), 2);
    }
}
