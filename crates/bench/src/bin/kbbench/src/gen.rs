//! The benchmark's own seeded generator: a skewed synthetic KB, the
//! query pools drawn from it and the delta stream applied to it.
//!
//! It is deliberately not shared with `kb_bench` or `kb_corpus`: a
//! later change to either must not be able to change the load.
//!
//! **The shape parameters are invented and unverified.** ISSUE 11 asked
//! for predicate skew, degree distribution and literal share to be set
//! from *A Note on General Statistics of Publicly Accessible Knowledge
//! Bases* (arXiv 2107.03572). The sandbox has no network and the
//! repository holds only the first words of that paper's abstract, so
//! not one of its figures could be read, and none is claimed here. What
//! the generator uses is the textbook picture of a public KB —
//! long-tailed relation frequency, power-law degrees with in-degree
//! heavier-tailed than out-degree, a sizeable share of literal objects
//! — with every number ([`WorkloadConfig::new`],
//! [`predicate_is_literal`], [`WorkloadConfig::literals`]) chosen by
//! the benchmark. Each record says so ([`WorkloadConfig::describe`])
//! and the README lists them. Setting them from measured figures is a
//! change to the benchmark of its own, after which the baseline is
//! recorded again.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Everything the generator's output depends on.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Seed of the single random stream all stages draw from, in order.
    pub seed: u64,
    /// Distinct facts in the base KB.
    pub facts: usize,
    /// Number of predicates; their frequency is Zipf(`predicate_zipf`).
    pub predicates: usize,
    /// Zipf exponent of predicate frequency.
    pub predicate_zipf: f64,
    /// Mean facts per subject entity (fixes the entity count).
    pub facts_per_entity: usize,
    /// Zipf exponent of subject choice: out-degree follows a power law
    /// with exponent `1 + 1/s`.
    pub out_degree_zipf: f64,
    /// Zipf exponent of object choice (entities and literals alike).
    pub in_degree_zipf: f64,
    /// Distinct texts per query class.
    pub pool: usize,
    /// Subject-bound probe texts of the serving mix. Four times what
    /// the router's result caches hold (4 partitions × 256), so that
    /// about seven probes in ten are hits: with the 20 000 subjects of
    /// ISSUE 11 one read in two was a hit, the median read sat on the
    /// edge between hits and misses, and moved by 20% with the seed.
    pub probe_subjects: usize,
    /// Length of the pre-drawn read sequence of the serving mix.
    pub read_sequence: usize,
    /// Deltas in the install stream.
    pub deltas: usize,
    /// Assertions per delta.
    pub delta_asserts: usize,
    /// Retractions per delta.
    pub delta_retracts: usize,
}

/// Every third predicate (1-based ranks 2, 5, 8, …) takes literal
/// objects; under Zipf(1) over 64 predicates that is 30.7% of facts.
pub fn predicate_is_literal(p: usize) -> bool {
    p % 3 == 1
}

/// The predicate the serving mix probes.
pub const PROBE_PREDICATE: usize = 0;
/// The predicates of the two standing views (COUNT…GROUP BY over a
/// literal-valued one; a filtered join over two entity-valued ones).
pub const VIEW_PREDICATES: [usize; 3] = [4, 5, 6];
/// The predicate the `groupby` class aggregates: rank 3, ≈7% of facts.
pub const GROUPBY_PREDICATE: usize = 2;
/// One delta in this many touches [`PROBE_PREDICATE`] instead of the
/// view predicates, and so invalidates the cached probe results.
pub const PROBE_DELTA_EVERY: usize = 10;
/// Subject-bound probes per scatter query in the serving mix.
pub const PROBES_PER_SCATTER: usize = 7;
/// Scatter texts of the serving mix.
pub const SCATTER_TEXTS: usize = 64;

impl WorkloadConfig {
    /// A config with the benchmark's fixed shape parameters.
    pub fn new(seed: u64, facts: usize) -> Self {
        Self {
            seed,
            facts,
            predicates: 64,
            predicate_zipf: 1.0,
            facts_per_entity: 5,
            out_degree_zipf: 0.5,
            in_degree_zipf: 1.0,
            pool: 1024,
            probe_subjects: 4096,
            read_sequence: 1 << 16,
            deltas: 0,
            delta_asserts: 80,
            delta_retracts: 20,
        }
    }

    /// Number of entities (subjects and entity-valued objects).
    pub fn entities(&self) -> usize {
        (self.facts / self.facts_per_entity).max(self.predicates)
    }

    /// Number of distinct literal values.
    pub fn literals(&self) -> usize {
        (self.facts / 10).max(self.predicates)
    }

    /// The parameters, as `(name, value)` pairs for the record; `source`
    /// says which of them are invented (all that shape the KB).
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("seed", self.seed.to_string()),
            ("facts", self.facts.to_string()),
            ("entities", self.entities().to_string()),
            ("literal_values", self.literals().to_string()),
            ("predicates", self.predicates.to_string()),
            ("predicate_zipf", format!("{} (invented)", self.predicate_zipf)),
            (
                "out_degree_zipf",
                format!(
                    "{} (invented; subject out-degree power law, exponent {})",
                    self.out_degree_zipf,
                    1.0 + 1.0 / self.out_degree_zipf
                ),
            ),
            (
                "in_degree_zipf",
                format!(
                    "{} (invented; object in-degree power law, exponent {})",
                    self.in_degree_zipf,
                    1.0 + 1.0 / self.in_degree_zipf
                ),
            ),
            ("facts_per_entity", format!("{} (invented)", self.facts_per_entity)),
            (
                "literal_predicates",
                "every third predicate, 30.7% of facts (invented); distinct literal values = \
                 facts / 10 (invented)"
                    .to_string(),
            ),
            ("query_pool", self.pool.to_string()),
            ("probe_subjects", self.probe_subjects.to_string()),
            ("deltas", self.deltas.to_string()),
            ("delta_entries", format!("{}+{}", self.delta_asserts, self.delta_retracts)),
            (
                "source",
                "invented by the benchmark, unverified: no figure of arXiv 2107.03572 (the \
                 statistics paper ISSUE 11 names) could be read offline, so predicate count and \
                 skew, both degree exponents, facts per entity, literal share and literal values \
                 are the benchmark's own choices"
                    .to_string(),
            ),
        ]
    }
}

/// Inverse-CDF Zipf sampler over ranks `0..n`: rank `k` has weight
/// `(k + 1)^-s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += ((k + 1) as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Probability of rank `k`.
    #[cfg(test)]
    pub fn share(&self, k: usize) -> f64 {
        self.cdf[k] - if k == 0 { 0.0 } else { self.cdf[k - 1] }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// One generated triple. `o < entities` names an entity, anything above
/// a literal value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GenFact {
    pub s: u32,
    pub p: u16,
    pub o: u32,
}

/// One install of the delta stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenDelta {
    pub asserts: Vec<GenFact>,
    pub retracts: Vec<GenFact>,
}

/// Everything a scenario feeds the program under test.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub config: WorkloadConfig,
    pub facts: Vec<GenFact>,
    /// Entities from the most to the least likely subject: position `r`
    /// holds the entity of out-degree rank `r`.
    pub by_out_degree: Vec<u32>,
    /// Entities from the most to the least likely object.
    pub by_in_degree: Vec<u32>,
    /// `point` class: subject and predicate bound.
    pub point: Vec<String>,
    /// `join` class: three-pattern subject star anchored on the rarest
    /// predicate.
    pub join: Vec<String>,
    /// `groupby` class: COUNT…GROUP BY over [`GROUPBY_PREDICATE`].
    pub groupby: Vec<String>,
    /// Serving mix texts: `probe_subjects` probes, then
    /// [`SCATTER_TEXTS`] scatter queries.
    pub reads: Vec<String>,
    /// Serving mix order: indexes into `reads`, cycled.
    pub read_order: Vec<u32>,
    /// The two standing views.
    pub views: [String; 2],
    pub deltas: Vec<GenDelta>,
}

pub fn entity_name(i: u32) -> String {
    format!("e{i}")
}

pub fn predicate_name(p: usize) -> String {
    format!("p{p:02}")
}

impl Workload {
    /// The term a generated object index stands for.
    pub fn object_name(&self, o: u32) -> String {
        let entities = self.config.entities() as u32;
        if o < entities {
            entity_name(o)
        } else {
            format!("v{}", o - entities)
        }
    }

    /// A canonical byte image, for the same-seed identity test.
    #[cfg(test)]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let fact = |out: &mut Vec<u8>, f: &GenFact| {
            out.extend_from_slice(&f.s.to_le_bytes());
            out.extend_from_slice(&f.p.to_le_bytes());
            out.extend_from_slice(&f.o.to_le_bytes());
        };
        for f in &self.facts {
            fact(&mut out, f);
        }
        for d in &self.deltas {
            out.push(b'D');
            for f in d.asserts.iter().chain(&d.retracts) {
                fact(&mut out, f);
            }
        }
        let texts = [&self.point, &self.join, &self.groupby, &self.reads];
        for t in texts.into_iter().flatten().chain(&self.views) {
            out.extend_from_slice(t.as_bytes());
            out.push(b'\n');
        }
        for i in &self.read_order {
            out.extend_from_slice(&i.to_le_bytes());
        }
        out
    }
}

/// Samplers shared by the fact and delta stages.
struct Samplers {
    predicate: Zipf,
    subject: Zipf,
    entity_object: Zipf,
    literal_object: Zipf,
    /// Rank → entity, so that an entity's index says nothing about its
    /// degree and out-hubs are not in-hubs.
    out_rank: Vec<u32>,
    in_rank: Vec<u32>,
    entities: u32,
}

impl Samplers {
    fn draw(&self, rng: &mut StdRng, p: usize) -> GenFact {
        let s = self.out_rank[self.subject.sample(rng)];
        let o = if predicate_is_literal(p) {
            self.entities + self.literal_object.sample(rng) as u32
        } else {
            self.in_rank[self.entity_object.sample(rng)]
        };
        GenFact { s, p: p as u16, o }
    }
}

/// Generates the workload: ordered stage passes over one seeded stream,
/// so a stage added at the end never changes what earlier stages drew.
pub fn generate(config: &WorkloadConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let samplers = stage_entities(config, &mut rng);
    let facts = stage_facts(config, &samplers, &mut rng);
    let mut w = Workload {
        config: config.clone(),
        facts,
        by_out_degree: samplers.out_rank.clone(),
        by_in_degree: samplers.in_rank.clone(),
        point: Vec::new(),
        join: Vec::new(),
        groupby: Vec::new(),
        reads: Vec::new(),
        read_order: Vec::new(),
        views: [String::new(), String::new()],
        deltas: Vec::new(),
    };
    stage_queries(&mut w, &mut rng);
    stage_serving_mix(&mut w, &samplers, &mut rng);
    stage_deltas(&mut w, &samplers, &mut rng);
    w
}

fn stage_entities(config: &WorkloadConfig, rng: &mut StdRng) -> Samplers {
    let entities = config.entities();
    let mut out_rank: Vec<u32> = (0..entities as u32).collect();
    out_rank.shuffle(rng);
    let mut in_rank = out_rank.clone();
    in_rank.shuffle(rng);
    Samplers {
        predicate: Zipf::new(config.predicates, config.predicate_zipf),
        subject: Zipf::new(entities, config.out_degree_zipf),
        entity_object: Zipf::new(entities, config.in_degree_zipf),
        literal_object: Zipf::new(config.literals(), config.in_degree_zipf),
        out_rank,
        in_rank,
        entities: entities as u32,
    }
}

fn stage_facts(config: &WorkloadConfig, samplers: &Samplers, rng: &mut StdRng) -> Vec<GenFact> {
    let mut seen = HashSet::with_capacity(config.facts * 2);
    let mut facts = Vec::with_capacity(config.facts);
    while facts.len() < config.facts {
        let p = samplers.predicate.sample(rng);
        let f = samplers.draw(rng, p);
        if seen.insert(f) {
            facts.push(f);
        }
    }
    facts
}

fn stage_queries(w: &mut Workload, rng: &mut StdRng) {
    let pool = w.config.pool;
    // point: (subject, predicate) pairs that exist, so no answer is
    // trivially empty.
    let mut seen = HashSet::new();
    while w.point.len() < pool && seen.len() < w.facts.len() {
        let f = w.facts[rng.gen_range(0..w.facts.len())];
        if seen.insert((f.s, f.p)) {
            w.point.push(format!("{} {} ?o", entity_name(f.s), predicate_name(f.p as usize)));
        }
    }
    // join: the rarest predicate anchors a subject star whose two other
    // arms are mid-frequency predicates; every unordered pair is one
    // distinct text.
    let anchor = predicate_name(w.config.predicates - 1);
    let arms: Vec<usize> = (7..w.config.predicates - 1).collect();
    let mut pairs = Vec::new();
    for (i, &a) in arms.iter().enumerate() {
        for &b in &arms[i + 1..] {
            pairs.push((a, b));
        }
    }
    pairs.shuffle(rng);
    w.join = pairs
        .iter()
        .take(pool)
        .map(|&(a, b)| {
            format!("?x {anchor} ?a . ?x {} ?b . ?x {} ?c", predicate_name(a), predicate_name(b))
        })
        .collect();
    // groupby: one aggregate, spelled with `pool` variable names so
    // that no two texts share a cache key.
    let g = predicate_name(GROUPBY_PREDICATE);
    w.groupby = (0..pool)
        .map(|k| format!("SELECT ?o{k} COUNT(?s) AS ?n WHERE {{ ?s {g} ?o{k} }} GROUP BY ?o{k}"))
        .collect();
}

fn stage_serving_mix(w: &mut Workload, samplers: &Samplers, rng: &mut StdRng) {
    let probe = predicate_name(PROBE_PREDICATE);
    let subjects = w.config.probe_subjects.min(samplers.out_rank.len());
    w.reads = (0..subjects)
        .map(|rank| format!("{} {probe} ?o", entity_name(samplers.out_rank[rank])))
        .collect();
    // Scatter texts: scans and aggregates over the rarest predicates,
    // cheap enough to be planned and executed afresh on every call.
    let rare = w.config.predicates - SCATTER_TEXTS / 2;
    for k in 0..SCATTER_TEXTS / 2 {
        let p = predicate_name(rare + k);
        w.reads.push(format!("?x {p} ?y"));
        w.reads.push(format!("SELECT ?y COUNT(?x) AS ?n WHERE {{ ?x {p} ?y }} GROUP BY ?y"));
    }
    let probe_rank = Zipf::new(subjects, 1.0);
    let scatter_rank = Zipf::new(SCATTER_TEXTS, 1.0);
    w.read_order = (0..w.config.read_sequence)
        .map(|i| {
            if i % (PROBES_PER_SCATTER + 1) == PROBES_PER_SCATTER {
                (subjects + scatter_rank.sample(rng)) as u32
            } else {
                probe_rank.sample(rng) as u32
            }
        })
        .collect();
    // The filtered join view hangs off the entity with the highest
    // in-degree, so installs keep changing its answer.
    let hub = entity_name(samplers.in_rank[0]);
    let other = entity_name(samplers.in_rank[1]);
    let [count, left, right] = VIEW_PREDICATES.map(predicate_name);
    w.views = [
        format!("SELECT ?v COUNT(?s) AS ?n WHERE {{ ?s {count} ?v }} GROUP BY ?v"),
        format!("SELECT ?s ?a WHERE {{ ?s {left} {hub} . ?s {right} ?a . FILTER(?a != {other}) }}"),
    ];
}

fn stage_deltas(w: &mut Workload, samplers: &Samplers, rng: &mut StdRng) {
    let config = &w.config;
    if config.deltas == 0 {
        return;
    }
    // Live facts per delta predicate: retractions must name a fact that
    // is live when the delta installs.
    let mut delta_preds = VIEW_PREDICATES.to_vec();
    delta_preds.push(PROBE_PREDICATE);
    let mut live: Vec<Vec<GenFact>> = vec![Vec::new(); config.predicates];
    let mut seen: HashSet<GenFact> = HashSet::new();
    for f in &w.facts {
        if delta_preds.contains(&(f.p as usize)) {
            live[f.p as usize].push(*f);
            seen.insert(*f);
        }
    }
    let mut deltas = Vec::with_capacity(config.deltas);
    for d in 0..config.deltas {
        let preds: &[usize] = if d % PROBE_DELTA_EVERY == PROBE_DELTA_EVERY - 1 {
            &[PROBE_PREDICATE]
        } else {
            &VIEW_PREDICATES
        };
        let mut retracts = Vec::with_capacity(config.delta_retracts);
        for i in 0..config.delta_retracts {
            let pool = &mut live[preds[i % preds.len()]];
            if !pool.is_empty() {
                retracts.push(pool.swap_remove(rng.gen_range(0..pool.len())));
            }
        }
        let mut asserts = Vec::with_capacity(config.delta_asserts);
        while asserts.len() < config.delta_asserts {
            let f = samplers.draw(rng, preds[asserts.len() % preds.len()]);
            // Never re-assert a triple the stream has seen: a retracted
            // fact coming back would make the delta a shadow entry, not
            // a new fact.
            if seen.insert(f) {
                asserts.push(f);
            }
        }
        for f in &asserts {
            live[f.p as usize].push(*f);
        }
        deltas.push(GenDelta { asserts, retracts });
    }
    w.deltas = deltas;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(seed: u64) -> WorkloadConfig {
        WorkloadConfig { deltas: 12, pool: 64, ..WorkloadConfig::new(seed, 20_000) }
    }

    #[test]
    fn same_seed_gives_a_byte_identical_workload() {
        assert_eq!(generate(&small(7)).to_bytes(), generate(&small(7)).to_bytes());
    }

    #[test]
    fn another_seed_gives_another_workload() {
        assert_ne!(generate(&small(7)).to_bytes(), generate(&small(8)).to_bytes());
    }

    #[test]
    fn zipf_rank_one_share_is_within_tolerance() {
        let z = Zipf::new(64, 1.0);
        let harmonic: f64 = (1..=64).map(|k| 1.0 / k as f64).sum();
        assert!((z.share(0) - 1.0 / harmonic).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 200_000;
        let hits = (0..n).filter(|_| z.sample(&mut rng) == 0).count();
        let share = hits as f64 / n as f64;
        assert!((share - z.share(0)).abs() < 0.005, "rank-1 share {share} vs {}", z.share(0));
    }

    #[test]
    fn facts_are_distinct_and_skewed_as_configured() {
        let w = generate(&small(11));
        let distinct: HashSet<_> = w.facts.iter().collect();
        assert_eq!(distinct.len(), w.config.facts);
        let literal = w.facts.iter().filter(|f| f.o >= w.config.entities() as u32).count();
        let share = literal as f64 / w.facts.len() as f64;
        assert!((0.25..0.36).contains(&share), "literal share {share}");
        let top = w.facts.iter().filter(|f| f.p == 0).count() as f64 / w.facts.len() as f64;
        assert!((0.17..0.25).contains(&top), "rank-1 predicate share {top}");
    }

    #[test]
    fn deltas_retract_only_live_facts_and_assert_only_new_ones() {
        let w = generate(&small(5));
        let mut live: HashSet<GenFact> = w.facts.iter().copied().collect();
        for d in &w.deltas {
            assert_eq!(d.asserts.len(), w.config.delta_asserts);
            assert_eq!(d.retracts.len(), w.config.delta_retracts);
            for f in &d.retracts {
                assert!(live.remove(f), "retracted a fact that was not live");
            }
            for f in &d.asserts {
                assert!(live.insert(*f), "asserted a fact that was already live");
            }
        }
    }

    #[test]
    fn query_pools_hold_distinct_texts() {
        let w = generate(&small(9));
        for pool in [&w.point, &w.join, &w.groupby] {
            assert_eq!(pool.len(), w.config.pool);
            assert_eq!(pool.iter().collect::<HashSet<_>>().len(), pool.len());
        }
        assert_eq!(w.reads.len(), w.config.probe_subjects.min(w.config.entities()) + SCATTER_TEXTS);
    }
}
